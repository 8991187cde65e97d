package kernel

import (
	"testing"

	"iolite/internal/cache"
	"iolite/internal/fsim"
	"iolite/internal/mem"
	"iolite/internal/sim"
)

func TestPrewarmUnifiedStopsAtHeadroom(t *testing.T) {
	e, m := newMachine(Config{MemBytes: 32 << 20, KernelReserveBytes: 4 << 20})
	var files []*fsim.File
	for i := 0; i < 40; i++ {
		files = append(files, m.FS.Create("/w"+string(rune('a'+i)), 1<<20))
	}
	keepFree := mem.PagesFor(8 << 20)
	loaded := m.PrewarmUnified(files, keepFree)
	if loaded == 0 {
		t.Fatal("nothing prewarmed")
	}
	if loaded >= 40 {
		t.Fatal("prewarm ignored the headroom limit")
	}
	if m.VM.FreePages() < keepFree-mem.PagesFor(1<<20) {
		t.Fatalf("free pages %d below headroom %d", m.VM.FreePages(), keepFree)
	}
	// Prewarm consumed no simulated time and no disk-time accounting that
	// would skew measurement.
	if e.Now() != 0 {
		t.Fatalf("prewarm advanced the clock to %v", e.Now())
	}
	// Prewarmed entries are real: a read hits without disk.
	pr := m.NewProcess("app", 1<<20)
	run(t, e, func(p *sim.Proc) {
		fd := mustOpen(t, p, m, pr, files[0].Name)
		m.Disk.ResetStats() // Open's metadata read is not the data read under test
		readAt(t, p, m, pr, fd, 0, files[0].Size()).Release()
	})
	if reads, _, _, _ := m.Disk.Stats(); reads != 0 {
		t.Fatalf("prewarmed read hit the disk %d times", reads)
	}
	if !m.FileCache.Contains(cache.Key{File: files[0].ID, Off: 0, Len: files[0].Size()}) {
		t.Fatal("prewarmed entry missing")
	}
}

func TestPrewarmMmapServesWithoutDisk(t *testing.T) {
	e, m := newMachine(Config{MemBytes: 32 << 20, KernelReserveBytes: 4 << 20})
	pr := m.NewProcess("srv", 1<<20)
	f := m.FS.Create("/doc", 2<<20)
	n := m.PrewarmMmap(pr, []*fsim.File{f}, mem.PagesFor(4<<20))
	if n != 1 || !m.Mmaps.Resident(f.ID) {
		t.Fatalf("prewarm loaded %d, resident=%v", n, m.Mmaps.Resident(f.ID))
	}
	m.Disk.ResetStats()
	run(t, e, func(p *sim.Proc) {
		mp := m.Mmap(p, pr, f)
		if int64(len(mp.Bytes(0, f.Size()))) != f.Size() {
			t.Error("mapping truncated")
		}
	})
	if reads, _, _, _ := m.Disk.Stats(); reads != 0 {
		t.Fatalf("resident mmap hit the disk %d times", reads)
	}
}

func TestForkCharges(t *testing.T) {
	e, m := newMachine(Config{})
	run(t, e, func(p *sim.Proc) {
		t0 := p.Now()
		m.Fork(p)
		if p.Now().Sub(t0) != m.Costs.Fork {
			t.Errorf("fork charged %v", p.Now().Sub(t0))
		}
	})
}
