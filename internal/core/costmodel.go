package core

import "repro/internal/sim"

// The FM packet-processing time model. The paper measured these times by
// profiling a software FM on an Intel Pentium 4 (3.00 GHz) and found
// (Fig. 4) that processing a PI-4 packet at the FM
//
//   - is slightly cheaper for the Parallel implementation than for the
//     serial ones, because the serial algorithms' bookkeeping (exploration
//     queue, per-device phase tracking) is more complex, and
//   - grows mildly with network size, because the FM's topology database
//     grows.
//
// We reproduce that surface with a per-algorithm affine model in the
// number of devices currently in the FM's database. The absolute
// calibration (tens of microseconds) matches the paper's Fig. 4 range;
// the experiments scale it with the FM processing factor exactly as the
// paper's Figs. 8-9 do. Distributed and Partial reuse the Parallel
// profile: they run the same propagation-order engine.
var (
	// fmBase is the per-algorithm fixed cost of processing one packet.
	fmBase = [numKinds]sim.Duration{
		SerialPacket: 18 * sim.Microsecond,
		SerialDevice: 16 * sim.Microsecond,
		Parallel:     12 * sim.Microsecond,
		Distributed:  12 * sim.Microsecond,
		Partial:      12 * sim.Microsecond,
	}
	// fmPerDevice is the additional cost per device already present in
	// the topology database.
	fmPerDevice = [numKinds]sim.Duration{
		SerialPacket: 60 * sim.Nanosecond,
		SerialDevice: 50 * sim.Nanosecond,
		Parallel:     40 * sim.Nanosecond,
		Distributed:  40 * sim.Nanosecond,
		Partial:      40 * sim.Nanosecond,
	}
)

// fmEvent is the cost of processing a PI-5 event report.
const fmEvent = 8 * sim.Microsecond

// FMProcessing returns the time the FM spends processing one management
// packet under algorithm k with dbSize devices discovered so far, scaled
// by the FM processing-speed factor (time = base/factor, so factor 4 is a
// 4x faster manager, as in the paper's Fig. 9c). factor must be positive.
func FMProcessing(k Kind, dbSize int, factor float64) sim.Duration {
	d := fmBase[k] + sim.Duration(dbSize)*fmPerDevice[k]
	if factor != 1 {
		d = d.Scale(1 / factor)
	}
	return d
}
