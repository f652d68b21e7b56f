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

// A watch bit stays armed for as long as the watcher keeps the page, and
// lapses after the first write it declines, until WatchPage re-arms it.
func TestWatchPageStaysArmedWhileKept(t *testing.T) {
	w := &recordWatcher{keep: map[uint64]bool{0x80001000: true}}
	b := newWatchedBus(t, 0x10000, w)
	if !b.WatchPage(0x80001008) {
		t.Fatal("WatchPage on RAM returned false")
	}
	b.Store(0x80000000, 8, 1) // unwatched page: silent
	wantNotes(t, w)
	b.Store(0x80001FF8, 8, 2)
	b.Store(0x80001000, 8, 3) // still armed: the watcher kept the page
	wantNotes(t, w, watchNote{0x80001000, 0xFF8, 0x1000}, watchNote{0x80001000, 0, 8})

	w.keep = nil
	b.Store(0x80001004, 4, 4) // declined: the bit lapses
	b.Store(0x80001004, 4, 5)
	wantNotes(t, w, watchNote{0x80001000, 4, 8})
	if !b.WatchPage(0x80001000) {
		t.Fatal("re-arm failed")
	}
	b.Store(0x80001010, 1, 6)
	wantNotes(t, w, watchNote{0x80001000, 0x10, 0x11})
}

// The bit survives a write if any one watcher keeps the page, and every
// watcher is told either way.
func TestWatchPageKeptByAnyWatcher(t *testing.T) {
	keeper := &recordWatcher{keep: map[uint64]bool{0x80000000: true}}
	other := &recordWatcher{}
	b := newWatchedBus(t, 0x1000, other, keeper)
	b.WatchPage(0x80000000)
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
	b.WatchPage(0x80000000)
	b.WatchPage(0x80001000)
	if !b.Store(0x80000FFD, 8, ^uint64(0)) {
		t.Fatal("straddling store failed")
	}
	wantNotes(t, w, watchNote{0x80000000, 0xFFD, 0x1000}, watchNote{0x80001000, 0, 5})
}

func TestWatchPageSpanningWrites(t *testing.T) {
	w := &recordWatcher{}
	b := newWatchedBus(t, 0x10000, w)
	b.WatchPage(0x80000000)
	b.WatchPage(0x80001000)
	b.WatchPage(0x80002000)
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
	if b.WatchPage(0x10000000) {
		t.Fatal("WatchPage on unmapped space returned true")
	}
	if !b.IsRAM(0x80000000, 8) {
		t.Fatal("IsRAM false for RAM")
	}
	if b.IsRAM(0x10000000, 8) {
		t.Fatal("IsRAM true for unmapped")
	}
}
