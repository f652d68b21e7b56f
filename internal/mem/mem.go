// Package mem implements the physical address space of the simulated
// machine: a DRAM region plus memory-mapped I/O devices dispatched by
// address range. All accesses are little-endian, as mandated for RISC-V
// memory.
//
// RAM is backed by a two-level, generation-tagged page table (4 KiB pages
// grouped into 4 MiB chunks) rather than a flat byte slice. Pages are
// copy-on-write: Bus.Snapshot captures all RAM in O(chunk directory) time
// by sharing the page objects, and a bus spawned from a snapshot (a fork)
// shares every clean page with its ancestor. A page is written in place
// only when its (owner, generation) tag matches the writing bus; any
// mismatch breaks the page off the shared backing first. The break-off
// check lives in the same write funnel (Store, WriteBytes, Port.Commit)
// that fires the page-watch notifications, so copy-on-first-write rides
// the exact choke point the host fast paths already trust.
package mem

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync/atomic"
)

// AccessType distinguishes the three architectural access kinds, matching
// the PMP permission bits and page-table permission checks.
type AccessType uint8

const (
	Read AccessType = iota
	Write
	Exec
)

func (a AccessType) String() string {
	switch a {
	case Read:
		return "read"
	case Write:
		return "write"
	case Exec:
		return "exec"
	default:
		return fmt.Sprintf("AccessType(%d)", uint8(a))
	}
}

// Device is a memory-mapped peripheral. Offsets are relative to the device's
// base address. Devices are accessed with naturally aligned widths of
// 1, 2, 4, or 8 bytes; a device may reject an access by returning false.
type Device interface {
	// Name identifies the device in traces and error messages.
	Name() string
	// Load reads size bytes at offset.
	Load(offset uint64, size int) (uint64, bool)
	// Store writes size bytes at offset.
	Store(offset uint64, size int, value uint64) bool
}

// RAM page-table geometry: 4 KiB pages, 1024 pages (4 MiB) per chunk.
const (
	pageShift  = 12
	pageSize   = 1 << pageShift
	pageMask   = pageSize - 1
	chunkShift = pageShift + 10
	chunkPages = 1 << (chunkShift - pageShift)
)

// ramPage is one 4 KiB page of RAM. The (owner, gen) tag records which bus
// allocated it and during which snapshot generation; the page may be
// written in place only by that bus while its generation is still current.
// Every other writer — the same bus after a snapshot, or a forked child —
// must break a copy off first. Pages whose tag is stale are therefore
// immutable forever, which is what makes sharing them across concurrently
// executing machines safe without any per-access synchronization.
type ramPage struct {
	owner, gen uint64
	data       [pageSize]byte
}

// ramChunk is a directory of 1024 page pointers, tagged like a page so the
// pointer array itself is copy-on-write too. A nil page pointer reads as
// zeros (RAM starts zeroed and untouched pages are never materialized).
type ramChunk struct {
	owner, gen uint64
	pages      [chunkPages]*ramPage
}

// Region is a mapped address range.
type Region struct {
	Base uint64
	Size uint64
	Dev  Device // nil for RAM regions

	// dir is the chunk directory of a RAM region (nil entries are
	// all-zero 4 MiB spans). It belongs to exactly one bus; snapshots and
	// forks copy the directory, never share it.
	dir []*ramChunk
	bus *Bus

	// watch is a per-4KiB-page bitmap of pages some PageWatcher has asked
	// to be told about. A bit is set by WatchPage and cleared by a write
	// none of the notified watchers keeps it through (see PageWatcher).
	// Allocated eagerly for RAM regions so that bits can be
	// armed with atomic ops from concurrently executing hart slices; writes
	// (and hence noteWrite) only ever happen while the harts are quiesced.
	// Watch bits are host-cache state: they are per-bus and never travel
	// with snapshots.
	watch []uint64
}

// page returns the page containing byte offset off, or nil for an
// untouched (all-zero) page. Safe for concurrent readers: the directory
// only changes while the machine is quiesced.
func (r *Region) page(off uint64) *ramPage {
	c := r.dir[off>>chunkShift]
	if c == nil {
		return nil
	}
	return c.pages[(off>>pageShift)&(chunkPages-1)]
}

// writablePage returns the page containing off, breaking it (and its
// chunk) off the shared copy-on-write backing if its generation tag does
// not match the owning bus. Must only be called while the machine is
// quiesced (direct-mode stores, barrier commits, image loads).
func (r *Region) writablePage(off uint64) *ramPage {
	b := r.bus
	ci := off >> chunkShift
	c := r.dir[ci]
	if c == nil || c.owner != b.id || c.gen != b.gen {
		nc := &ramChunk{owner: b.id, gen: b.gen}
		if c != nil {
			nc.pages = c.pages
		}
		c = nc
		r.dir[ci] = c
	}
	pi := (off >> pageShift) & (chunkPages - 1)
	pg := c.pages[pi]
	if pg == nil || pg.owner != b.id || pg.gen != b.gen {
		np := &ramPage{owner: b.id, gen: b.gen}
		if pg != nil {
			np.data = pg.data
			b.cowCopied++
		}
		pg = np
		c.pages[pi] = pg
		b.touched++
	}
	return pg
}

// loadRAM reads size little-endian bytes at byte offset off of a RAM region.
func (r *Region) loadRAM(off uint64, size int) (uint64, bool) {
	if (off&pageMask)+uint64(size) <= pageSize {
		pg := r.page(off)
		if pg == nil {
			switch size {
			case 1, 2, 4, 8:
				return 0, true
			}
			return 0, false
		}
		b := off & pageMask
		switch size {
		case 1:
			return uint64(pg.data[b]), true
		case 2:
			return uint64(binary.LittleEndian.Uint16(pg.data[b:])), true
		case 4:
			return uint64(binary.LittleEndian.Uint32(pg.data[b:])), true
		case 8:
			return binary.LittleEndian.Uint64(pg.data[b:]), true
		}
		return 0, false
	}
	// Page-straddling access (hardware-handled misalignment): byte loop.
	switch size {
	case 2, 4, 8:
	default:
		return 0, false
	}
	var v uint64
	for i := 0; i < size; i++ {
		if pg := r.page(off + uint64(i)); pg != nil {
			v |= uint64(pg.data[(off+uint64(i))&pageMask]) << (8 * uint(i))
		}
	}
	return v, true
}

// storeRAM writes size little-endian bytes at byte offset off of a RAM
// region, breaking pages off the shared backing as needed. It does not
// fire write watches; callers do.
func (r *Region) storeRAM(off uint64, size int, value uint64) bool {
	if (off&pageMask)+uint64(size) <= pageSize {
		b := off & pageMask
		var pg *ramPage
		switch size {
		case 1, 2, 4, 8:
			pg = r.writablePage(off)
		default:
			return false
		}
		switch size {
		case 1:
			pg.data[b] = byte(value)
		case 2:
			binary.LittleEndian.PutUint16(pg.data[b:], uint16(value))
		case 4:
			binary.LittleEndian.PutUint32(pg.data[b:], uint32(value))
		case 8:
			binary.LittleEndian.PutUint64(pg.data[b:], value)
		}
		return true
	}
	switch size {
	case 2, 4, 8:
	default:
		return false
	}
	for i := 0; i < size; i++ {
		pg := r.writablePage(off + uint64(i))
		pg.data[(off+uint64(i))&pageMask] = byte(value >> (8 * uint(i)))
	}
	return true
}

// Contains reports whether addr (with an access of size bytes) falls fully
// inside the region.
func (r *Region) Contains(addr uint64, size int) bool {
	return addr >= r.Base && addr-r.Base+uint64(size) <= r.Size
}

// PageWatcher is notified when a watched RAM page is written. Harts
// register as watchers to invalidate host-side caches (predecoded
// instructions, TLB entries whose page tables live on the page) when
// anything — another hart, DMA, a fault injector — mutates the page.
//
// InvalidatePhysPage receives the written bytes as the in-page range
// [lo, hi), 0 <= lo < hi <= 4096, so a watcher can drop exactly the state
// that read them. It returns whether the watcher still holds state cached
// from the page. The page's watch bit stays armed while any watcher keeps
// it and is cleared once none does; a watcher that dropped everything
// re-arms with WatchPage on its next fill.
type PageWatcher interface {
	InvalidatePhysPage(pageBase uint64, lo, hi int) (keep bool)
}

// busIDs hands out a process-unique identity per Bus. Identities are never
// reused, so a page tagged by a dead bus can never be mistaken for
// writable by a live one.
var busIDs atomic.Uint64

// Bus is the physical address space. It is not safe for concurrent use; the
// machine serializes hart steps (see internal/hart.Machine). Distinct buses
// forked from a common snapshot may run fully in parallel: the pages they
// share are immutable, and each bus breaks private copies into its own
// directory before writing.
type Bus struct {
	// id is this bus's process-unique copy-on-write identity; gen counts
	// the snapshots taken (each Snapshot/LoadSnapshot seals every page
	// created before it).
	id, gen uint64

	regions []*Region // sorted by base
	last    *Region   // 1-entry find cache; most accesses hit one region

	watchers []PageWatcher

	// touched counts pages made writable since the last snapshot (the
	// O(pages-touched) bound on the next Snapshot's sharing cost);
	// cowCopied counts pages ever broken off a shared ancestor.
	touched   uint64
	cowCopied uint64

	// failDev makes the next N device accesses return a bus error, as a
	// flaky peripheral would. Fault-injection harnesses arm it through
	// InjectDeviceFaults; RAM accesses are never affected.
	failDev int
}

// AddPageWatcher registers w for watched-page write notifications.
func (b *Bus) AddPageWatcher(w PageWatcher) { b.watchers = append(b.watchers, w) }

// WatchPage arms write notification for the 4KiB page containing pa. It
// returns false when pa is not RAM-backed (MMIO contents cannot be watched
// and must not be cached by callers).
func (b *Bus) WatchPage(pa uint64) bool {
	r := b.find(pa&^4095, 1)
	if r == nil || r.Dev != nil {
		return false
	}
	p := (pa - r.Base) >> 12
	atomicSetBit(&r.watch[p/64], 1<<(p%64))
	return true
}

// atomicSetBit ORs mask into *word with a CAS loop. Hart slices arm watch
// bits concurrently during parallel execution; writes that clear them are
// barrier-ordered, so a set-set race is the only one possible.
func atomicSetBit(word *uint64, mask uint64) {
	for {
		old := atomic.LoadUint64(word)
		if old&mask == mask || atomic.CompareAndSwapUint64(word, old, old|mask) {
			return
		}
	}
}

// IsRAM reports whether [addr, addr+size) is fully RAM-backed.
func (b *Bus) IsRAM(addr uint64, size int) bool {
	r := b.find(addr, size)
	return r != nil && r.Dev == nil
}

// noteWrite notifies the watchers of every watched page the write
// [off, off+size) touches, passing the written range within that page. A
// page's bit stays set while some watcher keeps state cached from it.
func (b *Bus) noteWrite(r *Region, off uint64, size int) {
	end := off + uint64(size)
	for p := off >> pageShift; p<<pageShift < end; p++ {
		word, bit := &r.watch[p/64], uint64(1)<<(p%64)
		if *word&bit == 0 {
			continue
		}
		base := p << pageShift
		lo, hi := int(max(off, base)-base), int(min(end, base+pageSize)-base)
		keep := false
		for _, w := range b.watchers {
			if w.InvalidatePhysPage(r.Base+base, lo, hi) {
				keep = true
			}
		}
		if !keep {
			*word &^= bit
		}
	}
}

// InjectDeviceFaults arms the bus to reject the next n device (MMIO)
// accesses as bus errors. RAM is unaffected. Passing 0 disarms.
func (b *Bus) InjectDeviceFaults(n int) { b.failDev = n }

// takeDevFault consumes one armed device fault, if any.
func (b *Bus) takeDevFault() bool {
	if b.failDev > 0 {
		b.failDev--
		return true
	}
	return false
}

// NewBus returns an empty address space with a fresh copy-on-write
// identity.
func NewBus() *Bus { return &Bus{id: busIDs.Add(1)} }

// AddRAM maps size bytes of zeroed RAM at base. Pages materialize on first
// write; untouched spans cost no host memory.
func (b *Bus) AddRAM(base, size uint64) error {
	return b.add(&Region{
		Base: base, Size: size,
		dir:   make([]*ramChunk, (size+(1<<chunkShift)-1)>>chunkShift),
		watch: make([]uint64, (size>>12)/64+1),
	})
}

// AddDevice maps dev at [base, base+size).
func (b *Bus) AddDevice(base, size uint64, dev Device) error {
	return b.add(&Region{Base: base, Size: size, Dev: dev})
}

func (b *Bus) add(r *Region) error {
	if r.Size == 0 {
		return fmt.Errorf("mem: empty region at %#x", r.Base)
	}
	if r.Base+r.Size < r.Base {
		return fmt.Errorf("mem: region at %#x wraps the address space", r.Base)
	}
	for _, o := range b.regions {
		if r.Base < o.Base+o.Size && o.Base < r.Base+r.Size {
			name := "ram"
			if o.Dev != nil {
				name = o.Dev.Name()
			}
			return fmt.Errorf("mem: region %#x+%#x overlaps %s at %#x", r.Base, r.Size, name, o.Base)
		}
	}
	r.bus = b
	b.regions = append(b.regions, r)
	sort.Slice(b.regions, func(i, j int) bool { return b.regions[i].Base < b.regions[j].Base })
	return nil
}

// Regions returns the mapped regions in address order.
func (b *Bus) Regions() []*Region { return b.regions }

// find locates the region containing [addr, addr+size).
func (b *Bus) find(addr uint64, size int) *Region {
	// Accesses cluster heavily in one region (DRAM), so try the last hit
	// before the binary search.
	if r := b.last; r != nil && r.Contains(addr, size) {
		return r
	}
	r := b.lookup(addr, size)
	if r != nil {
		b.last = r
	}
	return r
}

// lookup is find without the shared 1-entry cache: safe for concurrent
// readers (the region list is immutable once the machine runs). Per-hart
// Ports keep their own cache in front of it.
func (b *Bus) lookup(addr uint64, size int) *Region {
	// Binary search for the last region with Base <= addr.
	i := sort.Search(len(b.regions), func(i int) bool { return b.regions[i].Base > addr })
	if i == 0 {
		return nil
	}
	r := b.regions[i-1]
	if !r.Contains(addr, size) {
		return nil
	}
	return r
}

// Load reads size bytes (1, 2, 4, or 8) at physical address addr.
// The boolean result is false on an access fault (unmapped address or
// device rejection) — the architectural equivalent of a bus error.
func (b *Bus) Load(addr uint64, size int) (uint64, bool) {
	r := b.find(addr, size)
	if r == nil {
		return 0, false
	}
	if r.Dev != nil {
		if b.takeDevFault() {
			return 0, false
		}
		return r.Dev.Load(addr-r.Base, size)
	}
	return r.loadRAM(addr-r.Base, size)
}

// Store writes size bytes (1, 2, 4, or 8) at physical address addr.
func (b *Bus) Store(addr uint64, size int, value uint64) bool {
	r := b.find(addr, size)
	if r == nil {
		return false
	}
	if r.Dev != nil {
		if b.takeDevFault() {
			return false
		}
		return r.Dev.Store(addr-r.Base, size, value)
	}
	off := addr - r.Base
	if !r.storeRAM(off, size, value) {
		return false
	}
	b.noteWrite(r, off, size)
	return true
}

// WriteBytes copies p into RAM starting at addr. It is used to load images
// and fails if the range is not fully RAM-backed.
func (b *Bus) WriteBytes(addr uint64, p []byte) error {
	for len(p) > 0 {
		r := b.find(addr, 1)
		if r == nil || r.Dev != nil {
			return fmt.Errorf("mem: WriteBytes: %#x is not RAM", addr)
		}
		off := addr - r.Base
		n := pageSize - int(off&pageMask) // bytes left in this page
		if rem := int(r.Size - off); n > rem {
			n = rem
		}
		if n > len(p) {
			n = len(p)
		}
		pg := r.writablePage(off)
		copy(pg.data[off&pageMask:], p[:n])
		b.noteWrite(r, off, n)
		p = p[n:]
		addr += uint64(n)
	}
	return nil
}

// ReadBytes copies n RAM bytes starting at addr into a fresh slice.
func (b *Bus) ReadBytes(addr uint64, n int) ([]byte, error) {
	out := make([]byte, 0, n)
	for n > 0 {
		r := b.find(addr, 1)
		if r == nil || r.Dev != nil {
			return nil, fmt.Errorf("mem: ReadBytes: %#x is not RAM", addr)
		}
		off := addr - r.Base
		take := pageSize - int(off&pageMask)
		if avail := int(r.Size - off); take > avail {
			take = avail
		}
		if take > n {
			take = n
		}
		if pg := r.page(off); pg != nil {
			out = append(out, pg.data[off&pageMask:int(off&pageMask)+take]...)
		} else {
			out = append(out, make([]byte, take)...)
		}
		addr += uint64(take)
		n -= take
	}
	return out, nil
}
