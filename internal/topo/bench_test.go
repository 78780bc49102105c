package topo

import "testing"

// BenchmarkValidate measures Validate, which fabric.New runs on every
// build, on the two stress fabrics of the repo benchmark's discover-scale
// workload: the endpoint cabling check and the connectivity search read
// the port table once per port.
func BenchmarkValidate(b *testing.B) {
	for _, name := range []string{"dragonfly 16x64", "autofat 128x4096"} {
		tp, err := ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := tp.Validate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
