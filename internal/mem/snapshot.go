package mem

import "fmt"

// RAMSnapshot is an immutable page-shared image of every RAM region on a
// bus. Taking one costs O(chunk directory + pages touched since the last
// snapshot), not O(RAM): the snapshot shares the page objects with the bus
// it came from, and the generation bump performed by Snapshot guarantees
// neither the origin bus nor any bus the snapshot is later loaded into can
// write those pages in place. A snapshot may be loaded into any number of
// buses, concurrently with the origin machine running.
type RAMSnapshot struct {
	regions []ramRegionSnap
}

type ramRegionSnap struct {
	base, size uint64
	dir        []*ramChunk
}

// Pages returns the number of materialized (non-zero-backed) pages the
// snapshot references. It walks the chunk directories; intended for
// metrics, not hot paths.
func (s *RAMSnapshot) Pages() int {
	n := 0
	for _, rs := range s.regions {
		for _, c := range rs.dir {
			if c == nil {
				continue
			}
			for _, pg := range c.pages {
				if pg != nil {
					n++
				}
			}
		}
	}
	return n
}

// Snapshot captures all RAM regions by sharing their pages and seals the
// current generation: every page that existed before the call becomes
// immutable, and the bus's next write to each breaks off a private copy.
// Must be called between machine steps.
func (b *Bus) Snapshot() *RAMSnapshot {
	s := &RAMSnapshot{}
	for _, r := range b.regions {
		if r.Dev != nil {
			continue
		}
		dir := make([]*ramChunk, len(r.dir))
		copy(dir, r.dir)
		s.regions = append(s.regions, ramRegionSnap{base: r.Base, size: r.Size, dir: dir})
	}
	b.gen++
	b.touched = 0
	b.retireHost(0, true)
	return s
}

// LoadSnapshot replaces the contents of the bus's RAM regions with s. The
// bus's RAM layout must match the snapshot's exactly. The installed pages
// stay shared with every other holder of the snapshot — they carry foreign
// tags, so this bus copy-on-writes them like a forked child. Watched
// lines and host-side caches are NOT touched, but for the host pointers,
// which retire; callers that kept other caches across the load must flush
// them. Must be called between machine steps.
func (b *Bus) LoadSnapshot(s *RAMSnapshot) error {
	i := 0
	for _, r := range b.regions {
		if r.Dev != nil {
			continue
		}
		if i >= len(s.regions) || s.regions[i].base != r.Base || s.regions[i].size != r.Size {
			return fmt.Errorf("mem: LoadSnapshot: RAM layout mismatch at region %#x", r.Base)
		}
		dir := make([]*ramChunk, len(s.regions[i].dir))
		copy(dir, s.regions[i].dir)
		r.dir = dir
		i++
	}
	if i != len(s.regions) {
		return fmt.Errorf("mem: LoadSnapshot: snapshot has %d RAM regions, bus has %d", len(s.regions), i)
	}
	b.gen++
	b.touched = 0
	b.retireHost(0, true)
	return nil
}

// TouchedPages returns the number of pages made privately writable since
// the last Snapshot/LoadSnapshot — the sharing cost the next Snapshot
// will pay.
func (b *Bus) TouchedPages() uint64 { return b.touched }

// COWCopies returns the cumulative number of pages broken off a shared
// ancestor (copy-on-first-write events, excluding fresh zero pages).
func (b *Bus) COWCopies() uint64 { return b.cowCopied }
