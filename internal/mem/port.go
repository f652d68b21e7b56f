package mem

import "sort"

// wbEntry is one buffered 8-byte word of hart-local stores: val holds the
// written bytes, mask flags which of the eight bytes are valid.
type wbEntry struct {
	val  uint64
	mask uint8
}

// wbCap bounds the write buffer. A slice parks (and is resumed after the
// barrier) when the buffer fills; one instruction writes at most two words,
// so checking between instructions suffices.
const wbCap = 4096

// Port is a hart's private window onto the shared Bus. In normal (direct)
// mode it forwards straight to the bus. During a parallel execution slice
// (BeginSlice..Commit) the port:
//
//   - serves RAM loads with store→load forwarding from a private write
//     buffer layered over the (read-only) shared RAM;
//   - diverts RAM stores into that buffer, to be committed at the next
//     barrier in deterministic hart-ID order;
//   - refuses device (MMIO) accesses, raising the blocked flag so the hart
//     can park the instruction and replay it at the barrier.
//
// Each port also carries its own 1-entry region cache, so concurrent harts
// never touch the bus's shared find cache.
type Port struct {
	bus  *Bus
	last *Region // private find cache

	slicing bool
	blocked bool
	wb      map[uint64]wbEntry // keyed pa &^ 7
}

// NewPort returns a direct-mode port onto bus.
func NewPort(bus *Bus) *Port {
	return &Port{bus: bus, wb: make(map[uint64]wbEntry)}
}

// Bus returns the underlying shared bus.
func (p *Port) Bus() *Bus { return p.bus }

func (p *Port) find(addr uint64, size int) *Region {
	if r := p.last; r != nil && r.Contains(addr, size) {
		return r
	}
	r := p.bus.lookup(addr, size)
	if r != nil {
		p.last = r
	}
	return r
}

// BeginSlice switches the port into buffered slice mode.
func (p *Port) BeginSlice() {
	p.slicing = true
	p.blocked = false
}

// Slicing reports whether the port is in buffered slice mode.
func (p *Port) Slicing() bool { return p.slicing }

// TakeBlocked reads and clears the blocked flag. It is set when a slice-mode
// access needed a device and was refused.
func (p *Port) TakeBlocked() bool {
	b := p.blocked
	p.blocked = false
	return b
}

// Full reports whether the write buffer has reached capacity.
func (p *Port) Full() bool { return len(p.wb) >= wbCap }

// Buffered returns the number of buffered words.
func (p *Port) Buffered() int { return len(p.wb) }

// Load reads size bytes at addr. In slice mode, device accesses set the
// blocked flag and fail; RAM loads see this hart's own buffered stores.
func (p *Port) Load(addr uint64, size int) (uint64, bool) {
	if !p.slicing {
		return p.bus.Load(addr, size)
	}
	r := p.find(addr, size)
	if r == nil {
		return 0, false
	}
	if r.Dev != nil {
		p.blocked = true
		return 0, false
	}
	v, ok := r.loadRAM(addr-r.Base, size)
	if !ok {
		return 0, false
	}
	if len(p.wb) != 0 {
		v = p.forward(addr, size, v)
	}
	return v, true
}

// Store writes size bytes at addr. In slice mode, device accesses set the
// blocked flag and fail; RAM stores go to the write buffer.
func (p *Port) Store(addr uint64, size int, value uint64) bool {
	if !p.slicing {
		return p.bus.Store(addr, size, value)
	}
	r := p.find(addr, size)
	if r == nil {
		return false
	}
	if r.Dev != nil {
		p.blocked = true
		return false
	}
	switch size {
	case 1, 2, 4, 8:
	default:
		return false
	}
	p.buffer(addr, size, value)
	return true
}

// buffer records a store of size bytes at addr into the write buffer,
// splitting across the two containing words if the access is misaligned.
func (p *Port) buffer(addr uint64, size int, value uint64) {
	for i := 0; i < size; {
		word := (addr + uint64(i)) &^ 7
		off := (addr + uint64(i)) & 7
		n := 8 - int(off) // bytes that fit in this word
		if n > size-i {
			n = size - i
		}
		e := p.wb[word]
		for j := 0; j < n; j++ {
			b := byte(value >> (8 * uint(i+j)))
			sh := 8 * (off + uint64(j))
			e.val = e.val&^(0xFF<<sh) | uint64(b)<<sh
			e.mask |= 1 << (off + uint64(j))
		}
		p.wb[word] = e
		i += n
	}
}

// forward overlays this hart's buffered bytes onto a value just loaded from
// shared RAM.
func (p *Port) forward(addr uint64, size int, v uint64) uint64 {
	for i := 0; i < size; {
		word := (addr + uint64(i)) &^ 7
		off := (addr + uint64(i)) & 7
		n := 8 - int(off)
		if n > size-i {
			n = size - i
		}
		if e, ok := p.wb[word]; ok {
			for j := 0; j < n; j++ {
				if e.mask&(1<<(off+uint64(j))) != 0 {
					b := byte(e.val >> (8 * (off + uint64(j))))
					v = v&^(0xFF<<(8*uint(i+j))) | uint64(b)<<(8*uint(i+j))
				}
			}
		}
		i += n
	}
	return v
}

// WatchPage arms a write watch for the page containing pa, like Bus.WatchPage
// but through the port's private region cache (watch-bit arming is atomic).
func (p *Port) WatchPage(pa uint64) bool {
	r := p.find(pa&^4095, 1)
	if r == nil || r.Dev != nil {
		return false
	}
	pg := (pa - r.Base) >> 12
	atomicSetBit(&r.watch[pg/64], 1<<(pg%64))
	return true
}

// IsRAM reports whether [addr, addr+size) is fully RAM-backed.
func (p *Port) IsRAM(addr uint64, size int) bool {
	r := p.find(addr, size)
	return r != nil && r.Dev == nil
}

// Commit applies the buffered stores to shared RAM in ascending physical
// address order, firing write watches as usual with each committed 8-byte
// word as the written range. For every committed word it
// calls kill (if non-nil) with the word's base address so the machine can
// break other harts' overlapping LR/SC reservations. Must only be called at
// a barrier, with all slices quiesced; it leaves the port in direct mode.
func (p *Port) Commit(kill func(wordPA uint64)) {
	p.slicing = false
	p.blocked = false
	if len(p.wb) == 0 {
		return
	}
	words := make([]uint64, 0, len(p.wb))
	for w := range p.wb {
		words = append(words, w)
	}
	sort.Slice(words, func(i, j int) bool { return words[i] < words[j] })
	for _, w := range words {
		e := p.wb[w]
		r := p.find(w, 8)
		if r == nil || r.Dev != nil {
			continue // region vanished out from under us: cannot happen
		}
		off := w - r.Base
		if e.mask == 0xFF {
			r.storeRAM(off, 8, e.val)
		} else {
			// A word-aligned 8-byte span never straddles a page.
			pg := r.writablePage(off)
			base := off & pageMask
			for j := uint64(0); j < 8; j++ {
				if e.mask&(1<<j) != 0 {
					pg.data[base+j] = byte(e.val >> (8 * j))
				}
			}
		}
		p.bus.noteWrite(r, off, 8)
		if kill != nil {
			kill(w)
		}
		delete(p.wb, w)
	}
}

// Discard drops any buffered stores and returns the port to direct mode
// (machine reset / snapshot restore paths).
func (p *Port) Discard() {
	p.slicing = false
	p.blocked = false
	clear(p.wb)
}
