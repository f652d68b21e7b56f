package mem

import "testing"

// retireLog records the host-pointer retirements a bus announces.
type retireLog struct {
	pages []uint64
	all   int
}

func (l *retireLog) RetireHostPages(page uint64, all bool) {
	if all {
		l.all++
		return
	}
	l.pages = append(l.pages, page)
}

// TestHostPageStates walks one page through every state HostPage reports,
// and checks which events retire host pointers: arming a line the page
// lacked (write pointers into that page), Snapshot and LoadSnapshot (every
// one).
func TestHostPageStates(t *testing.T) {
	const base, page = 0x8000_0000, 0x8000_3000
	b := NewBus()
	if err := b.AddRAM(base, 1<<20); err != nil {
		t.Fatal(err)
	}
	if err := b.AddDevice(0x1000_0000, 0x1000, &stubDev{name: "dev"}); err != nil {
		t.Fatal(err)
	}
	log := &retireLog{}
	b.AddHostHolder(log)
	state := func() (PageState, uint32) {
		_, st, lines := b.HostPage(page + 8)
		return st, lines
	}
	if p, st, _ := b.HostPage(0x1000_0000); st != PageMMIO || p != nil {
		t.Fatalf("device page: %v, %p", st, p)
	}
	if p, st, _ := b.HostPage(page); st != PageUntouched || p[0] != 0 {
		t.Fatalf("untouched page: %v", st)
	}
	b.Store(page+16, 8, 0x1122)
	p, st, lines := b.HostPage(page)
	if st != PageWritable || lines != 0 || p[16] != 0x22 {
		t.Fatalf("written page: %v, lines %#x", st, lines)
	}
	p[24] = 0x33 // a host write lands in the bus's page
	if v, _ := b.Load(page+24, 1); v != 0x33 {
		t.Fatalf("host write not seen by Load: %#x", v)
	}
	b.Watch(page+0x100, 4)
	if st, lines := state(); st != PageWritable || lines != 1<<2 || len(log.pages) != 1 || log.pages[0] != page {
		t.Fatalf("armed line: %v, lines %#x, retired %v", st, lines, log.pages)
	}
	b.Watch(page+0x17C, 4) // already armed: nothing to retire
	if len(log.pages) != 1 {
		t.Fatalf("re-arming an armed line retired again: %v", log.pages)
	}
	b.Watch(page+0x17C, 8) // grows into line 3
	if st, lines := state(); st != PageWritable || lines != 3<<2 || len(log.pages) != 2 {
		t.Fatalf("grown lines: %v, lines %#x, retired %v", st, lines, log.pages)
	}
	b.Store(page, 8, 1) // an unwatched line: the lines stay
	if _, lines := state(); lines != 3<<2 {
		t.Fatalf("lines %#x after a store beside them", lines)
	}
	b.Store(page+0x100, 8, 1) // no watcher keeps the lines
	if st, lines := state(); st != PageWritable || lines != 0 {
		t.Fatalf("lapsed watch: %v, lines %#x", st, lines)
	}
	snap := b.Snapshot()
	if st, _ := state(); st != PageSealed || log.all != 1 {
		t.Fatalf("after Snapshot: %v, %d retire-alls", st, log.all)
	}
	b.Store(page, 8, 2) // breaks a private copy off
	if st, _ := state(); st != PageWritable {
		t.Fatalf("after the break: %v", st)
	}
	if err := b.LoadSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if st, _ := state(); st != PageSealed || log.all != 2 {
		t.Fatalf("after LoadSnapshot: %v, %d retire-alls", st, log.all)
	}
}
