package rib

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
)

// generation is the part of a published generation the fan-out shares:
// what changed, and the views of it subscribers receive. Subscriber
// queues point at this record, not at the Snapshot, so a stalled reader's
// backlog pins update lists and never whole databases.
type generation struct {
	gen uint64
	// fpHex is the snapshot's Fingerprint in its wire form, rendered once
	// for every batch and Stats call that carries it.
	fpHex string
	// delta transforms the previous generation's leaves into this one's:
	// changed or new leaves as "set" ops, vanished ones as "delete" ops,
	// each group in sorted path order.
	delta []Update
	// filtered holds the delta view per prefix.
	filtered views
}

// view is what every subscriber on one prefix receives for one
// generation: the batch — the generation's delta filtered to the prefix,
// or the full sorted state under it — and, for HTTP subscribers, its
// NDJSON line. Each is built once per (generation, prefix), outside every
// RIB lock, by whichever goroutine first needs it: a pump or handler, or
// the installer when it hands a delta to a reader already waiting. The
// installer's share is bounded: at most one delta view per distinct
// prefix per install, O(distinct prefixes × |delta|), and never a
// full-state body or an encoded line.
type view struct {
	build sync.Once
	batch Batch

	encode sync.Once
	line   []byte
}

// viewKey names one view of a generation: a batch type and a
// subscription prefix.
type viewKey struct{ typ, prefix string }

// views memoizes a generation's views by key.
type views struct {
	mu sync.Mutex
	m  map[viewKey]*view
}

// maxViews bounds how many views one memo holds. Prefixes are client
// input, and a quiet fabric keeps one generation current for as long as
// it stays quiet; past the bound a view is built for its caller alone.
const maxViews = 1024

// get returns the memoized view for a key, an empty one if this is the
// first caller to ask; the caller builds it under the view's own Once.
func (c *views) get(typ, prefix string) *view {
	key := viewKey{typ, prefix}
	c.mu.Lock()
	defer c.mu.Unlock()
	v := c.m[key]
	if v == nil {
		if c.m == nil {
			c.m = make(map[viewKey]*view)
		}
		v = new(view)
		if len(c.m) < maxViews {
			c.m[key] = v
		}
	}
	return v
}

// deltaView returns generation g's delta as subscribers on a prefix
// receive it.
func (r *RIB) deltaView(g *generation, prefix string) *view {
	v := g.filtered.get(DeltaBatch, prefix)
	v.build.Do(func() {
		v.batch = Batch{Gen: g.gen, Type: DeltaBatch, Fingerprint: g.fpHex, view: v}
		if prefix == "/" {
			v.batch.Updates = g.delta
			return
		}
		r.built.filters.Add(1)
		for _, u := range g.delta {
			if underPrefix(u.Path, prefix) {
				v.batch.Updates = append(v.batch.Updates, u)
			}
		}
	})
	return v
}

// fullView returns snapshot s as one full-state batch of the given type
// ("sync" for an initial subscription, "resync" after an overflow) for
// subscribers on a prefix. The two types share one sorted body.
func (r *RIB) fullView(s *Snapshot, typ, prefix string) *view {
	v := s.full.get(typ, prefix)
	v.build.Do(func() {
		v.batch = Batch{Gen: s.Gen, Type: typ, Fingerprint: s.pub.fpHex, view: v}
		if typ == ResyncBatch {
			v.batch.Updates = r.fullView(s, SyncBatch, prefix).batch.Updates
			return
		}
		r.built.syncs.Add(1)
		v.batch.Updates = s.syncBody(prefix)
	})
	return v
}

// line returns the view's batch as the NDJSON line json.Encoder.Encode
// writes for it, encoded on first use and shared by every connection.
func (r *RIB) line(v *view) []byte {
	v.encode.Do(func() {
		r.built.lines.Add(1)
		size := 128 // the batch's own fields, then per update its keys and punctuation
		for _, u := range v.batch.Updates {
			size += 48 + len(u.Path) + len(u.Value)
		}
		buf := bytes.NewBuffer(make([]byte, 0, size))
		if err := json.NewEncoder(buf).Encode(v.batch); err != nil {
			panic(fmt.Sprintf("rib: generation %d %s batch does not encode: %v", v.batch.Gen, v.batch.Type, err)) // leaves are our own encodings
		}
		v.line = buf.Bytes()
	})
	return v.line
}
