// Package pmp implements RISC-V Physical Memory Protection: decoding of
// pmpcfg/pmpaddr CSRs, address matching (TOR, NA4, NAPOT), lock semantics,
// WARL legalization of reserved permission combinations, and the access
// check used on every load, store, and fetch of the simulated machine.
//
// The same File type backs the machine's physical PMP (internal/hart) and
// Miralis's virtual PMP registers (internal/core); the reference model
// (internal/refmodel) implements its own independent check used as the
// verification oracle for "faithful execution".
package pmp

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"

	"govfm/internal/mem"
	"govfm/internal/rv"
)

// MaxEntries is the architectural maximum number of PMP entries.
const MaxEntries = 64

// pmpcfg bit layout.
const (
	CfgR = 1 << 0
	CfgW = 1 << 1
	CfgX = 1 << 2
	CfgL = 1 << 7

	// A field (bits 4:3) values.
	AOff   = 0
	ATor   = 1
	ANa4   = 2
	ANapot = 3
)

// AMode extracts the address-matching mode from a cfg byte.
func AMode(cfg byte) byte { return cfg >> 3 & 3 }

// WithAMode returns cfg with the address-matching mode replaced.
func WithAMode(cfg, a byte) byte { return cfg&^0x18 | a<<3&0x18 }

// LegalizeCfg applies the WARL rules for a pmpcfg byte: bits 5 and 6 are
// hardwired to zero, and the reserved combination W=1,R=0 is legalized by
// clearing W (the combination is reserved unless Smepmp's rule-locking is
// active, which this machine does not implement). This is exactly the class
// of legalization in which the paper reports finding a bug (§6.5).
func LegalizeCfg(v byte) byte {
	v &^= 0x60 // reserved bits
	if v&CfgW != 0 && v&CfgR == 0 {
		v &^= CfgW
	}
	return v
}

// File is a set of PMP entries. The zero value has zero implemented
// entries, which performs no checking.
type File struct {
	n    int
	cfg  [MaxEntries]byte
	addr [MaxEntries]uint64

	// Decoded-region cache for the access-check hot path; rebuilt lazily
	// after any register write.
	regLo    [MaxEntries]uint64
	regLast  [MaxEntries]uint64
	regOK    [MaxEntries]bool
	regDirty bool

	// view is the ID views interned the current contents under, or 0 while
	// a write that changed them is unsettled (see View). Host caches that
	// embed a decision derived from this file — the hart's software TLB,
	// its superblock guards, the monitor's wall verdicts — tag what they
	// keep with the view and treat any mismatch as a miss. A world switch
	// that reprograms the file and a later one that restores it land back
	// on the same ID, so those caches survive the round trip; no cached
	// entry ever carries 0.
	view  uint64
	views *Views

	// Flattened-range cache: the address space partitioned into segments
	// on which the "lowest-numbered matching entry" function is constant.
	// segBase[k] is the first address of segment k (segment k ends where
	// segment k+1 begins, the last one at the top of the address space);
	// segOwner[k] is the lowest-numbered entry covering that segment, or
	// -1 when none does. An access's verdict is decided by the minimum
	// owner over the segments it spans (see checkFast), replacing the
	// linear TOR/NAPOT scan with a binary search. All state lives in
	// fixed arrays so File copies (snapshot clone) stay self-contained.
	fast     bool
	segDirty bool
	nSeg     int
	lastSeg  int // hint: segment that resolved the previous check
	segBase  [2*MaxEntries + 2]uint64
	segOwner [2*MaxEntries + 2]int8

	// Perf counts access checks. Plain counters: Check runs on every
	// simulated access, single-goroutine per file, and metrics snapshots
	// read them between steps. Never consulted by the check itself.
	Perf struct {
		Checks   uint64 // total Check calls
		FastHits uint64 // resolved by the flattened-range lookup
	}
}

// NewFile returns a PMP file with n implemented entries (0..64).
func NewFile(n int) *File {
	if n < 0 || n > MaxEntries {
		panic(fmt.Sprintf("pmp: invalid entry count %d", n))
	}
	return &File{n: n, regDirty: true, segDirty: true, views: new(Views)}
}

// Views interns PMP contents — the cfg bytes and pmpaddr values of the
// implemented entries — into view IDs: while the table holds them, equal
// contents get one ID and different contents different IDs. IDs start at
// 1, are never reused, and are host state only; no simulated cycle
// depends on them. Every clone of a file shares its table, and machines
// spawned from one image share their origin's, so interning is locked:
// forks run concurrently.
//
// The table holds at most ViewCap contents. Interning a new one into a
// full table clears it first, and the counter goes on, so every cache
// entry that carries an ID issued before the clear simply misses: equal
// contents interned again get a new ID.
type Views struct {
	mu    sync.Mutex
	ids   map[string]uint64
	last  uint64 // the last ID issued
	first uint64 // the first ID issued since the table was last cleared
}

// ViewCap bounds the contents a view table holds at once.
const ViewCap = 64

// Len returns the number of distinct contents the table holds.
func (v *Views) Len() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.ids)
}

// First returns the lowest ID the table still holds: every live ID lies
// in [First, First+ViewCap).
func (v *Views) First() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.first
}

// intern returns the ID of key, issuing the next one to a new key.
func (v *Views) intern(key []byte) uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	id, ok := v.ids[string(key)]
	if !ok {
		if v.ids == nil {
			v.ids = make(map[string]uint64)
		}
		if len(v.ids) >= ViewCap {
			clear(v.ids)
		}
		v.last++
		id = v.last
		if len(v.ids) == 0 {
			v.first = id
		}
		v.ids[string(key)] = id
	}
	return id
}

// markDirty records a register mutation: both decode caches go stale and
// the view is unsettled until the next View.
func (f *File) markDirty() {
	f.regDirty = true
	f.segDirty = true
	f.view = 0
}

// View returns the ID of the file's current contents, interning them
// first if a write changed them since the last call.
func (f *File) View() uint64 {
	if f.view == 0 {
		f.settle()
	}
	return f.view
}

// SettledView returns the view without settling it: 0 while a write is
// unsettled. It is a plain field load, for guards on hot paths, which
// settle with View and re-check only on a miss.
func (f *File) SettledView() uint64 { return f.view }

// Views returns the intern table the file's view IDs come from.
func (f *File) Views() *Views {
	if f.views == nil {
		f.views = new(Views)
	}
	return f.views
}

// SetViews moves the file into table v. A hart keeps one table across the
// fresh file a reset builds, so every ID it ever issued keeps naming the
// same contents.
func (f *File) SetViews(v *Views) {
	if f.views != v {
		f.views, f.view = v, 0
	}
}

// settle interns the implemented entries' contents.
func (f *File) settle() {
	var key [MaxEntries * 9]byte
	n := f.n
	copy(key[:n], f.cfg[:n])
	for i, a := range f.addr[:n] {
		binary.LittleEndian.PutUint64(key[n+8*i:], a)
	}
	f.view = f.Views().intern(key[:9*n])
}

// SetFast selects the flattened-range lookup (true) or the architectural
// linear scan (false) for Check. Both produce identical verdicts — the
// differential fuzz gates run them against each other — so this only
// trades host time.
func (f *File) SetFast(on bool) { f.fast = on }

// FastEnabled reports whether the flattened-range lookup is in use.
func (f *File) FastEnabled() bool { return f.fast }

// NumEntries returns the number of implemented entries.
func (f *File) NumEntries() int { return f.n }

// Cfg returns the cfg byte of entry i (zero for unimplemented entries).
func (f *File) Cfg(i int) byte {
	if i < 0 || i >= f.n {
		return 0
	}
	return f.cfg[i]
}

// Addr returns the pmpaddr value of entry i (zero for unimplemented).
func (f *File) Addr(i int) uint64 {
	if i < 0 || i >= f.n {
		return 0
	}
	return f.addr[i]
}

// Locked reports whether entry i is locked (L bit set).
func (f *File) Locked(i int) bool { return f.Cfg(i)&CfgL != 0 }

// SetCfg writes the cfg byte of entry i, honouring lock bits and WARL
// legalization. Writes to locked or unimplemented entries are ignored, as
// on hardware.
func (f *File) SetCfg(i int, v byte) {
	if i < 0 || i >= f.n || f.Locked(i) {
		return
	}
	f.setCfg(i, v)
}

// ForceCfg writes entry i's cfg ignoring locks; this models machine reset
// and is used by the monitor, never by guest-visible CSR writes.
func (f *File) ForceCfg(i int, v byte) {
	if i < 0 || i >= f.n {
		return
	}
	f.setCfg(i, v)
}

// setCfg stores a legalized cfg byte. A write that changes nothing leaves
// the decode caches and the view in place: the monitor rewrites every
// entry on every world switch.
func (f *File) setCfg(i int, v byte) {
	if v = LegalizeCfg(v); f.cfg[i] != v {
		f.cfg[i] = v
		f.markDirty()
	}
}

// SetAddr writes pmpaddr[i]. The write is ignored if entry i is locked, or
// if entry i+1 is locked in TOR mode (which freezes its base address).
// pmpaddr registers hold bits 55:2 of the address; higher bits are WARL
// zero.
func (f *File) SetAddr(i int, v uint64) {
	if i < 0 || i >= f.n || f.Locked(i) {
		return
	}
	if i+1 < f.n && f.Locked(i+1) && AMode(f.cfg[i+1]) == ATor {
		return
	}
	f.setAddr(i, v)
}

// ForceAddr writes pmpaddr[i] ignoring locks (monitor/reset use only).
func (f *File) ForceAddr(i int, v uint64) {
	if i < 0 || i >= f.n {
		return
	}
	f.setAddr(i, v)
}

// setAddr stores a pmpaddr value; like setCfg, only a change dirties.
func (f *File) setAddr(i int, v uint64) {
	if v &= rv.Mask(54); f.addr[i] != v {
		f.addr[i] = v
		f.markDirty()
	}
}

// CfgReg reads the packed pmpcfg register (reg must be even on RV64):
// pmpcfg0 packs entries 0-7, pmpcfg2 packs 8-15, etc.
func (f *File) CfgReg(reg int) uint64 {
	var v uint64
	for k := 0; k < 8; k++ {
		v |= uint64(f.Cfg(reg*4+k)) << (8 * k)
	}
	return v
}

// SetCfgReg writes the packed pmpcfg register, byte by byte, applying
// per-entry lock and WARL rules.
func (f *File) SetCfgReg(reg int, v uint64) {
	for k := 0; k < 8; k++ {
		f.SetCfg(reg*4+k, byte(v>>(8*k)))
	}
}

// Region decodes entry i into the inclusive physical range [lo, last].
// ok is false when the entry is OFF or decodes to an empty range. The
// inclusive representation lets an all-ones NAPOT entry cover the very
// top of the address space without overflow.
func (f *File) Region(i int) (lo, last uint64, ok bool) {
	return decodeRegion(f.Cfg(i), f.Addr(i), f.prevAddr(i))
}

func (f *File) prevAddr(i int) uint64 {
	if i == 0 {
		return 0 // TOR base for entry 0 is hardwired to address 0
	}
	return f.Addr(i - 1)
}

func decodeRegion(cfg byte, addr, prevAddr uint64) (lo, last uint64, ok bool) {
	switch AMode(cfg) {
	case AOff:
		return 0, 0, false
	case ATor:
		lo, top := prevAddr<<2, addr<<2
		if lo >= top {
			return 0, 0, false
		}
		return lo, top - 1, true
	case ANa4:
		lo = addr << 2
		return lo, lo + 3, true
	case ANapot:
		ones := bits.TrailingZeros64(^addr)
		if ones >= 54 {
			// All-ones pmpaddr covers the whole address space.
			return 0, ^uint64(0), true
		}
		size := uint64(8) << uint(ones)
		lo = (addr &^ rv.Mask(uint(ones))) << 2
		return lo, lo + size - 1, true
	}
	return 0, 0, false
}

// MatchResult describes how an access relates to a single PMP entry.
type MatchResult int

const (
	NoMatch      MatchResult = iota // no byte of the access matches
	FullMatch                       // every byte matches
	PartialMatch                    // some but not all bytes match — always faults
)

// refreshRegions rebuilds the decoded-region cache.
func (f *File) refreshRegions() {
	for i := 0; i < f.n; i++ {
		f.regLo[i], f.regLast[i], f.regOK[i] = f.Region(i)
	}
	f.regDirty = false
}

// matchEntry classifies an access of size bytes at addr against entry i.
func (f *File) matchEntry(i int, addr uint64, size int) MatchResult {
	if f.regDirty {
		f.refreshRegions()
	}
	lo, last, ok := f.regLo[i], f.regLast[i], f.regOK[i]
	if !ok {
		return NoMatch
	}
	aLast := addr + uint64(size) - 1
	if aLast < addr {
		// The access itself wraps the address space: nothing sane matches
		// fully, so any overlap is a faulting partial match.
		if addr > last {
			return NoMatch
		}
		return PartialMatch
	}
	if aLast < lo || addr > last {
		return NoMatch
	}
	if addr >= lo && aLast <= last {
		return FullMatch
	}
	return PartialMatch
}

// Check performs the architectural PMP check for an access of size bytes at
// physical address addr, performed in the given privilege mode. It returns
// true when the access is allowed.
//
// Rules (privileged spec §3.7):
//   - entries are searched in priority order; the lowest-numbered matching
//     entry determines the result;
//   - a partial match always fails;
//   - a matching unlocked entry does not constrain M-mode;
//   - a matching locked entry constrains all modes, including M;
//   - if no entry matches: M-mode succeeds, S/U fail when at least one
//     entry is implemented.
func (f *File) Check(addr uint64, size int, acc mem.AccessType, mode rv.Mode) bool {
	f.Perf.Checks++
	if f.fast {
		if allowed, ok := f.checkFast(addr, size, acc, mode); ok {
			f.Perf.FastHits++
			return allowed
		}
	}
	return f.checkScan(addr, size, acc, mode)
}

// checkScan is the architectural priority scan over all entries; it is the
// reference Check implementation and the fallback for the rare access
// shapes checkFast declines (wrap-around).
func (f *File) checkScan(addr uint64, size int, acc mem.AccessType, mode rv.Mode) bool {
	for i := 0; i < f.n; i++ {
		switch f.matchEntry(i, addr, size) {
		case NoMatch:
			continue
		case PartialMatch:
			return false
		case FullMatch:
			cfg := f.cfg[i]
			if mode == rv.ModeM && cfg&CfgL == 0 {
				return true
			}
			switch acc {
			case mem.Read:
				return cfg&CfgR != 0
			case mem.Write:
				return cfg&CfgW != 0
			case mem.Exec:
				return cfg&CfgX != 0
			}
			return false
		}
	}
	if mode == rv.ModeM {
		return true
	}
	return f.n == 0
}

// rebuildSegs flattens the decoded regions into the sorted segment table.
// Boundary points are each region's first address and the address just past
// its last (omitted when the region reaches the top of the address space),
// plus 0; the owner of each resulting segment is the lowest-numbered entry
// covering it. With n ≤ 64 entries the point set is tiny, so a simple
// insertion sort avoids any allocation.
func (f *File) rebuildSegs() {
	if f.regDirty {
		f.refreshRegions()
	}
	var pts [2*MaxEntries + 2]uint64
	np := 1 // pts[0] = 0
	for i := 0; i < f.n; i++ {
		if !f.regOK[i] {
			continue
		}
		pts[np] = f.regLo[i]
		np++
		if f.regLast[i] != ^uint64(0) {
			pts[np] = f.regLast[i] + 1
			np++
		}
	}
	for i := 1; i < np; i++ {
		v := pts[i]
		j := i - 1
		for j >= 0 && pts[j] > v {
			pts[j+1] = pts[j]
			j--
		}
		pts[j+1] = v
	}
	f.nSeg = 0
	for k := 0; k < np; k++ {
		if k > 0 && pts[k] == pts[k-1] {
			continue
		}
		s := pts[k]
		owner := int8(-1)
		for i := 0; i < f.n; i++ {
			if f.regOK[i] && f.regLo[i] <= s && s <= f.regLast[i] {
				owner = int8(i)
				break
			}
		}
		f.segBase[f.nSeg] = s
		f.segOwner[f.nSeg] = owner
		f.nSeg++
	}
	f.lastSeg = 0
	f.segDirty = false
}

// owner returns the lowest-numbered entry matching any byte of
// [addr, last], or -1, from the flattened segment table.
func (f *File) owner(addr, last uint64) int {
	if f.segDirty {
		f.rebuildSegs()
	}
	// Find the segment containing addr: greatest k with segBase[k] <= addr
	// (segment 0 starts at 0, so k is well-defined). Consecutive checks
	// overwhelmingly land in the segment that answered the last one — the
	// straight-line fetch stream, a superblock's data accesses — so a
	// one-entry hint short-circuits the binary search.
	lo := f.lastSeg
	if lo >= f.nSeg || f.segBase[lo] > addr ||
		(lo+1 < f.nSeg && f.segBase[lo+1] <= addr) {
		hi := f.nSeg - 1
		lo = 0
		for lo < hi {
			mid := (lo + hi + 1) / 2
			if f.segBase[mid] <= addr {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		f.lastSeg = lo
	}
	m := -1
	for k := lo; k < f.nSeg && f.segBase[k] <= last; k++ {
		if o := int(f.segOwner[k]); o >= 0 && (m < 0 || o < m) {
			m = o
		}
	}
	return m
}

// checkFast resolves the access via the flattened segment table. It returns
// ok=false when it cannot decide (the access wraps the address space), in
// which case the caller falls back to the architectural scan.
//
// The matching entry, per the spec, is the lowest-numbered entry covering
// any byte of the access. Since each segment's owner is the lowest-numbered
// entry covering that segment, that matching entry is exactly the minimum
// owner over the segments the access spans (min over bytes of min over
// entries = min over the per-segment minima). Partial match is then a
// simple containment test of the access against that entry's region.
func (f *File) checkFast(addr uint64, size int, acc mem.AccessType, mode rv.Mode) (allowed, ok bool) {
	aLast := addr + uint64(size) - 1
	if aLast < addr {
		return false, false // wrap-around: let the scan handle it
	}
	m := f.owner(addr, aLast)
	if m < 0 {
		if mode == rv.ModeM {
			return true, true
		}
		return f.n == 0, true
	}
	if addr < f.regLo[m] || aLast > f.regLast[m] {
		return false, true // partial match always faults
	}
	cfg := f.cfg[m]
	if mode == rv.ModeM && cfg&CfgL == 0 {
		return true, true
	}
	switch acc {
	case mem.Read:
		return cfg&CfgR != 0, true
	case mem.Write:
		return cfg&CfgW != 0, true
	case mem.Exec:
		return cfg&CfgX != 0, true
	}
	return false, true
}

// PageVerdict returns the permissions (CfgR|CfgW|CfgX) that every access
// lying wholly within the 4KiB page at base is granted in mode, with
// ok=true, when one PMP decision covers the whole page: no entry matches
// any byte of it, or the lowest-numbered entry that matches one contains
// all of it. Every access in the page then resolves to that decision. A
// page that an entry's boundary cuts (a NA4 entry, a TOR bound, a NAPOT
// region smaller than the page) reports ok=false, and its accesses need
// the per-access Check.
func (f *File) PageVerdict(base uint64, mode rv.Mode) (perm byte, ok bool) {
	const rwx = CfgR | CfgW | CfgX
	last := base + 4095
	m := f.owner(base, last)
	switch {
	case m < 0 && (mode == rv.ModeM || f.n == 0):
		return rwx, true
	case m < 0:
		return 0, true
	case base < f.regLo[m] || last > f.regLast[m]:
		return 0, false
	case mode == rv.ModeM && f.cfg[m]&CfgL == 0:
		return rwx, true
	}
	return f.cfg[m] & rwx, true
}

// NAPOTAddr encodes the pmpaddr value covering the naturally aligned
// power-of-two region [base, base+size). It panics if base/size do not
// form a valid NAPOT region of at least 8 bytes.
func NAPOTAddr(base, size uint64) uint64 {
	if size < 8 || size&(size-1) != 0 || base&(size-1) != 0 {
		panic(fmt.Sprintf("pmp: invalid NAPOT region base=%#x size=%#x", base, size))
	}
	return base>>2 | (size/8 - 1)
}

// Snapshot copies all implemented entries into caller-owned slices, in
// entry order. Used for tracing and world-switch bookkeeping.
func (f *File) Snapshot() (cfg []byte, addr []uint64) {
	cfg = make([]byte, f.n)
	addr = make([]uint64, f.n)
	copy(cfg, f.cfg[:f.n])
	copy(addr, f.addr[:f.n])
	return cfg, addr
}

// Clone returns an independent copy of the file: entries (locked ones
// included), lock state, every derived cache and the view. All register
// and cache state lives in fixed arrays, so cloned files diverge freely
// afterwards; they share the intern table, so equal contents keep one ID
// across them. Snapshots and monitor forks copy PMP files with it.
func (f *File) Clone() *File {
	c := *f
	return &c
}

// Reset clears all entries, including locked ones (power-on reset).
func (f *File) Reset() {
	f.cfg = [MaxEntries]byte{}
	f.addr = [MaxEntries]uint64{}
	f.markDirty()
}
