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

	// Perf counts access checks. Plain counters: a file is checked from
	// one goroutine, and metrics snapshots read them between steps. Never
	// consulted by the check itself.
	Perf struct {
		Checks   uint64 // total Check calls
		FastHits uint64 // always 0; benchmark/ still reads it
	}
}

// NewFile returns a PMP file with n implemented entries (0..64).
func NewFile(n int) *File {
	if n < 0 || n > MaxEntries {
		panic(fmt.Sprintf("pmp: invalid entry count %d", n))
	}
	return &File{n: n, regDirty: true, views: new(Views)}
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

// markDirty records a register mutation: the decoded regions go stale
// and the view is unsettled until the next View.
func (f *File) markDirty() {
	f.regDirty = true
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
// the decoded regions and the view in place: the monitor rewrites every
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

// matchEntry classifies the access [addr, last] against entry i's
// decoded region; last < addr when the access wraps the address space.
func (f *File) matchEntry(i int, addr, last uint64) MatchResult {
	lo, hi, ok := f.regLo[i], f.regLast[i], f.regOK[i]
	if !ok {
		return NoMatch
	}
	if last < addr {
		// The access itself wraps the address space: nothing sane matches
		// fully, so any overlap is a faulting partial match.
		if addr > hi {
			return NoMatch
		}
		return PartialMatch
	}
	if last < lo || addr > hi {
		return NoMatch
	}
	if addr >= lo && last <= hi {
		return FullMatch
	}
	return PartialMatch
}

// decide is the architectural priority scan behind Check and PageVerdict
// (see Check for the rules). It returns the permissions (CfgR|CfgW|CfgX)
// that an access of size bytes at addr is granted in mode, and ok=false
// when the lowest-numbered entry matching any of its bytes matches only
// some of them.
func (f *File) decide(addr uint64, size int, mode rv.Mode) (perm byte, ok bool) {
	const rwx = CfgR | CfgW | CfgX
	if f.regDirty {
		f.refreshRegions()
	}
	last := addr + uint64(size) - 1
	for i := 0; i < f.n; i++ {
		switch f.matchEntry(i, addr, last) {
		case NoMatch:
			continue
		case PartialMatch:
			return 0, false
		}
		if cfg := f.cfg[i]; mode != rv.ModeM || cfg&CfgL != 0 {
			return cfg & rwx, true
		}
		return rwx, true
	}
	if mode == rv.ModeM || f.n == 0 {
		return rwx, true
	}
	return 0, true
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
	perm, ok := f.decide(addr, size, mode)
	return ok && perm&(CfgR<<acc) != 0
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
	return f.decide(base, 4096, mode)
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
