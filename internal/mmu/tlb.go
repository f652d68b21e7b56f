package mmu

// TLB is the hart's host-side page cache: one entry per (virtual page,
// context) carries the translation, the PMP verdict for the whole page and,
// when the page is RAM the host may touch in place, its host bytes. A hit
// answers a guest load or store with a host load or store: no walk, no PMP
// check, no bus lookup. It is purely a host accelerator: the simulated
// machine has no architectural TLB, and the cycle model charges the same
// cycles whether an access hits here or walks, checks and looks up in full
// (the Sv39 walk charges no cycles of its own; see DESIGN.md, "Host fast
// paths vs. the simulated cycle model").
//
// The table holds tlbSets two-way sets of 32-byte entries. An entry is
// tagged with its virtual page number and a context ID that Ctx interns
// from a Key: the translation root, privilege, SUM/MXR, V and the PMP view
// an entry's translation and verdict depend on. A lookup under different
// state carries a different ID and simply misses, so satp rewrites, mode
// changes, mstatus edits and PMP reprogramming invalidate for free, and a
// PMP round trip (a world switch out and back) interns to its old ID and
// finds its entries again. Flush clears the context table: IDs are never
// reused, so every entry filled before it misses from then on, in O(1).
// Software edits of page-table memory are caught by the bus page watch:
// the hart watches every page a cached walk read its PTEs from and
// flushes on any write to one (see hart's InvalidatePhysPage).
//
// In a context without translation (M-mode, or satp Bare) an entry maps
// its page to itself, so the same table is the hart's physical page cache.
//
// Entries are per 4KiB page even inside superpages; Sv39 maps each 4KiB
// virtual page to a fixed physical page regardless of leaf level, so this
// is lossless.
type TLB struct {
	sets [tlbSets][2]Entry

	// The context table: at most ctxCap keys with their IDs. Interning a
	// new key into a full table clears it first (Flush).
	keys [ctxCap]Key
	ids  [ctxCap]uint32
	n    int
	last uint32 // the last ID issued; 0 is never issued

	// The key Ctx interned last, and its ID (0: none).
	memo   Key
	memoID uint32

	// hosts is set while some entry may hold host bytes.
	hosts bool
}

const (
	tlbSets = 128
	ctxCap  = 16
)

// Entry is one cached page. PA holds the physical page base in its high
// bits and the entry's flags in its low 12.
type Entry struct {
	VPN  uint64
	PA   uint64
	Host *[4096]byte // the page's host bytes, when HostR is set
	Ctx  uint32
	// Lines are the page's watched lines (mem.Lines) when it got HostW: a
	// store that touches one must go through the bus.
	Lines uint32
}

// Entry flags. The per-access-type flags are indexed by mem.AccessType
// (Read 0, Write 1, Exec 2): TransR<<acc, PermR<<acc, HostR<<acc.
const (
	// TransR/W/X: a walk for this access type succeeded (an identity
	// entry sets all three). A write walk has set the leaf's D bit, so a
	// read-filled entry is not good for a write until one has.
	TransR = 1 << iota
	TransW
	TransX
	// PermR/W/X: the PMP verdict for the whole page, under the context's
	// view and privilege, permits this access type (pmp.File.PageVerdict).
	PermR
	PermW
	PermX
	// HostR/HostW: Host may be read in place, or written in place
	// outside Lines.
	HostR
	HostW
	// Verdict: the page verdict was computed, whether or not one decision
	// covers the page.
	Verdict
	// NoHost: the page never gets host bytes under this entry: it is not
	// RAM, or a PMP boundary cuts it.
	NoHost

	flagMask = 1<<12 - 1
)

// Page returns the entry's physical page base.
func (e *Entry) Page() uint64 { return e.PA &^ flagMask }

// Key bundles the state a translation and a PMP verdict are made under.
// Callers intern it with Ctx once per block dispatch (the superblock tier:
// CSR writes, traps, and xrets are all block terminators, so the state
// cannot change mid-block) or per access, where Ctx's memo makes an
// unchanged key one comparison.
//
// Under two-stage translation Mode has KeyV set, Satp holds vsatp, and
// Hgatp the G-stage root: an entry filled under a different hgatp (or the
// other virtualization mode) simply misses, so hgatp rewrites and V
// transitions invalidate for free, exactly like satp (see DESIGN.md,
// "Two-stage translation vs. the single-stage TLB"). A context without
// translation keeps only View and the privilege: a zero Satp and no KeyV,
// which no translating context has.
type Key struct {
	Satp  uint64 // satp, or vsatp under V; zero without translation
	Hgatp uint64 // zero unless V
	View  uint64 // pmp.File.View at lookup; never 0
	Mode  uint64 // the privilege, with KeySUM, KeyMXR and KeyV
}

// Key.Mode bits above the privilege: mstatus (vsstatus under V) SUM and
// MXR, and V.
const (
	KeySUM = 1 << (8 + iota)
	KeyMXR
	KeyV
)

// Ctx returns the context ID of k: while the context table holds k, the
// same ID; never 0, and never an ID issued to another key.
func (t *TLB) Ctx(k *Key) uint32 {
	if *k == t.memo && t.memoID != 0 {
		return t.memoID
	}
	return t.intern(k)
}

func (t *TLB) intern(k *Key) uint32 {
	var id uint32
	for i := 0; i < t.n; i++ {
		if *k == t.keys[i] {
			id = t.ids[i]
			break
		}
	}
	if id == 0 {
		if t.last == ^uint32(0) {
			// The IDs are used up: drop every entry and key before
			// reissuing any.
			t.sets = [tlbSets][2]Entry{}
			t.last = 0
			t.Flush()
		}
		if t.n == ctxCap {
			t.Flush()
		}
		t.last++
		id = t.last
		t.keys[t.n], t.ids[t.n] = *k, id
		t.n++
	}
	t.memo, t.memoID = *k, id
	return id
}

// Flush invalidates every entry in O(1): it clears the context table, so
// no later lookup carries an ID an entry was filled under.
func (t *TLB) Flush() {
	t.n = 0
	t.memoID = 0
}

// set returns the set virtual page vpn maps to under context ctx. The
// context spreads one page's entries under different contexts (an
// identity-mapped code page that M-mode and a translated mode both run)
// across sets.
func (t *TLB) set(vpn uint64, ctx uint32) *[2]Entry {
	return &t.sets[(vpn+uint64(ctx)*79)%tlbSets]
}

// Probe returns the entry for virtual page vpn under context ctx, or nil.
func (t *TLB) Probe(vpn uint64, ctx uint32) *Entry {
	s := t.set(vpn, ctx)
	if s[0].VPN == vpn && s[0].Ctx == ctx {
		return &s[0]
	}
	if s[1].VPN == vpn && s[1].Ctx == ctx {
		return &s[1]
	}
	return nil
}

// Insert records that virtual page vpn maps to physical page page under
// ctx with the given flags. An entry already there for the same page
// gains the flags; otherwise the new entry takes the set's first way and
// the one it displaces, if any, moves to the second.
func (t *TLB) Insert(vpn uint64, ctx uint32, page, flags uint64) *Entry {
	if e := t.Probe(vpn, ctx); e != nil {
		if e.Page() == page {
			e.PA |= flags
			return e
		}
		*e = Entry{VPN: vpn, Ctx: ctx, PA: page | flags}
		return e
	}
	s := t.set(vpn, ctx)
	if s[0].Ctx != 0 {
		s[1] = s[0]
	}
	s[0] = Entry{VPN: vpn, Ctx: ctx, PA: page | flags}
	return &s[0]
}

// SetHost gives e its page's host bytes with the access flags (HostR,
// HostW) and the page's watched lines.
func (t *TLB) SetHost(e *Entry, p *[4096]byte, flags uint64, lines uint32) {
	e.Host = p
	e.PA |= flags
	e.Lines = lines
	t.hosts = true
}

// RetireHost drops host bytes the bus no longer vouches for
// (mem.HostHolder): with all, every entry's; otherwise the write access
// into physical page page, whose watched lines grew.
func (t *TLB) RetireHost(page uint64, all bool) {
	if !t.hosts {
		return
	}
	for i := range t.sets {
		for j := range t.sets[i] {
			e := &t.sets[i][j]
			switch {
			case e.Host == nil:
			case all:
				e.PA &^= HostR | HostW
				e.Host = nil
			case e.Page() == page:
				e.PA &^= HostW
			}
		}
	}
	t.hosts = t.hosts && !all
}
