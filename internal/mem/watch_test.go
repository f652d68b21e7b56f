package mem

import (
	"slices"
	"testing"
)

// watchNote is one InvalidatePhysPage call.
type watchNote struct {
	page   uint64
	lo, hi int
}

// recordWatcher records every notification and keeps the pages in keep.
type recordWatcher struct {
	notes []watchNote
	keep  map[uint64]bool
}

func (w *recordWatcher) InvalidatePhysPage(p uint64, lo, hi int) bool {
	w.notes = append(w.notes, watchNote{p, lo, hi})
	return w.keep[p]
}

func newWatchedBus(t *testing.T, size uint64, ws ...*recordWatcher) *Bus {
	t.Helper()
	b := NewBus()
	if err := b.AddRAM(0x80000000, size); err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		b.AddPageWatcher(w)
	}
	return b
}

func wantNotes(t *testing.T, w *recordWatcher, want ...watchNote) {
	t.Helper()
	if !slices.Equal(w.notes, want) {
		t.Fatalf("notes = %x, want %x", w.notes, want)
	}
	w.notes = nil
}

// A page's watch stays armed for as long as the watcher keeps the page,
// and lapses after the first write it declines, until Watch re-arms it.
func TestWatchPageStaysArmedWhileKept(t *testing.T) {
	w := &recordWatcher{keep: map[uint64]bool{0x80001000: true}}
	b := newWatchedBus(t, 0x10000, w)
	if !b.Watch(0x80001000, 4096) {
		t.Fatal("Watch on RAM returned false")
	}
	b.Store(0x80000000, 8, 1) // unwatched page: silent
	wantNotes(t, w)
	b.Store(0x80001FF8, 8, 2)
	b.Store(0x80001000, 8, 3) // still armed: the watcher kept the page
	wantNotes(t, w, watchNote{0x80001000, 0xFF8, 0x1000}, watchNote{0x80001000, 0, 8})

	w.keep = nil
	b.Store(0x80001004, 4, 4) // declined: the watch lapses
	b.Store(0x80001004, 4, 5)
	wantNotes(t, w, watchNote{0x80001000, 4, 8})
	if !b.Watch(0x80001000, 4096) {
		t.Fatal("re-arm failed")
	}
	b.Store(0x80001010, 1, 6)
	wantNotes(t, w, watchNote{0x80001000, 0x10, 0x11})
}

// The watch survives a write if any one watcher keeps the page, and every
// watcher is told either way.
func TestWatchPageKeptByAnyWatcher(t *testing.T) {
	keeper := &recordWatcher{keep: map[uint64]bool{0x80000000: true}}
	other := &recordWatcher{}
	b := newWatchedBus(t, 0x1000, other, keeper)
	b.Watch(0x80000000, 4096)
	b.Store(0x80000100, 2, 1)
	b.Store(0x80000200, 2, 1)
	want := []watchNote{{0x80000000, 0x100, 0x102}, {0x80000000, 0x200, 0x202}}
	wantNotes(t, other, want...)
	wantNotes(t, keeper, want...)
	keeper.keep = nil
	b.Store(0x80000300, 2, 1)
	b.Store(0x80000400, 2, 1) // neither kept it: silent
	wantNotes(t, keeper, watchNote{0x80000000, 0x300, 0x302})
}

// A store straddling two watched pages reports each page's share of it.
func TestWatchPageStraddlingStore(t *testing.T) {
	w := &recordWatcher{}
	b := newWatchedBus(t, 0x10000, w)
	b.Watch(0x80000000, 4096)
	b.Watch(0x80001000, 4096)
	if !b.Store(0x80000FFD, 8, ^uint64(0)) {
		t.Fatal("straddling store failed")
	}
	wantNotes(t, w, watchNote{0x80000000, 0xFFD, 0x1000}, watchNote{0x80001000, 0, 5})
}

func TestWatchPageSpanningWrites(t *testing.T) {
	w := &recordWatcher{}
	b := newWatchedBus(t, 0x10000, w)
	b.Watch(0x80000000, 4096)
	b.Watch(0x80001000, 4096)
	b.Watch(0x80002000, 4096)
	// WriteBytes across three pages notifies each watched page with its
	// part of the write.
	if err := b.WriteBytes(0x80000F00, make([]byte, 0x1200)); err != nil {
		t.Fatal(err)
	}
	wantNotes(t, w,
		watchNote{0x80000000, 0xF00, 0x1000},
		watchNote{0x80001000, 0, 0x1000},
		watchNote{0x80002000, 0, 0x100})
}

func TestWatchPageRejectsMMIO(t *testing.T) {
	b := NewBus()
	if err := b.AddRAM(0x80000000, 0x1000); err != nil {
		t.Fatal(err)
	}
	if b.Watch(0x10000000, 4096) {
		t.Fatal("Watch on unmapped space returned true")
	}
	if !b.IsRAM(0x80000000, 8) {
		t.Fatal("IsRAM false for RAM")
	}
	if b.IsRAM(0x10000000, 8) {
		t.Fatal("IsRAM true for unmapped")
	}
}

// TestWatchLines checks the line rules: only a write that touches an
// armed line is seen, whichever of its bytes touch it (a store or a
// WriteBytes across two lines, the second one armed), and a write no
// watcher keeps the page through drops every line of the page.
func TestWatchLines(t *testing.T) {
	const page = 0x80002000
	w := &recordWatcher{keep: map[uint64]bool{page: true}}
	b := newWatchedBus(t, 0x10000, w)
	b.Store(page, 1, 0) // the page exists before any line is armed
	if !b.Watch(page+0x84, 4) || !b.Watch(page+0x200, 0x100) {
		t.Fatal("Watch on RAM returned false")
	}
	if _, _, lines := b.HostPage(page); lines != 1<<1|1<<4|1<<5 {
		t.Fatalf("armed lines %#x, want lines 1, 4 and 5", lines)
	}
	b.Store(page+0x78, 8, 1)  // line 0 only
	b.Store(page+0x100, 8, 1) // line 2
	b.Store(page+0x1000, 8, 1)
	wantNotes(t, w)
	b.Store(page+0x7C, 8, 2) // lines 0 and 1: the second is armed
	b.Store(page+0xFC, 8, 2) // lines 1 and 2: the first is armed
	b.Store(page+0x2F8, 4, 2)
	wantNotes(t, w, watchNote{page, 0x7C, 0x84}, watchNote{page, 0xFC, 0x104}, watchNote{page, 0x2F8, 0x2FC})
	if err := b.WriteBytes(page+0x40, make([]byte, 0x41)); err != nil { // lines 0 and 1
		t.Fatal(err)
	}
	if err := b.WriteBytes(page+0x300, make([]byte, 0x100)); err != nil { // lines 6 and 7
		t.Fatal(err)
	}
	wantNotes(t, w, watchNote{page, 0x40, 0x81})

	w.keep = nil
	b.Store(page+0x80, 4, 3) // declined: every line of the page lapses
	b.Store(page+0x200, 4, 3)
	wantNotes(t, w, watchNote{page, 0x80, 0x84})
	if _, _, lines := b.HostPage(page); lines != 0 {
		t.Fatalf("lines %#x after the watch lapsed", lines)
	}
}

// TestWatchLinesSpanPages arms the lines of a range that crosses a page
// boundary: the tail of one page and the head of the next.
func TestWatchLinesSpanPages(t *testing.T) {
	w := &recordWatcher{}
	b := newWatchedBus(t, 0x10000, w)
	b.Watch(0x80000FF0, 0x20)
	b.Store(0x80000000, 8, 1)
	b.Store(0x80001080, 8, 1)
	wantNotes(t, w)
	b.Store(0x80000FF8, 8, 1)
	b.Store(0x80001008, 8, 1)
	wantNotes(t, w, watchNote{0x80000000, 0xFF8, 0x1000}, watchNote{0x80001000, 8, 0x10})
}

// TestLines checks the line masks of byte ranges.
func TestLines(t *testing.T) {
	for _, c := range []struct {
		off  uint64
		size int
		want uint32
	}{
		{0, 1, 1}, {0x7F, 1, 1}, {0x7F, 2, 3}, {0x80, 8, 2}, {0xFFC, 4, 1 << 31},
		{0xF7C, 8, 3 << 30}, {0, 4096, ^uint32(0)}, {0x100, 0x180, 7 << 2},
	} {
		if got := Lines(c.off, c.size); got != c.want {
			t.Errorf("Lines(%#x, %d) = %#x, want %#x", c.off, c.size, got, c.want)
		}
	}
}
