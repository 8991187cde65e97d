package apps

import (
	"testing"

	"iolite/internal/sim"
)

const testFile = "/data.txt"

// newWarm builds a machine with one warm file.
func newWarm(size int64) map[string]int64 {
	return map[string]int64{testFile: size}
}

func TestWCVariantsAgreeAndIOLiteFaster(t *testing.T) {
	const size = 1 << 20
	unmod := WC(NewAppMachine(newWarm(size)), Unmodified, testFile)
	iol := WC(NewAppMachine(newWarm(size)), IOLite, testFile)

	if unmod.Bytes != size || iol.Bytes != size {
		t.Fatalf("bytes: %d / %d, want %d", unmod.Bytes, iol.Bytes, size)
	}
	if unmod.Words != iol.Words || unmod.Lines != iol.Lines {
		t.Fatalf("functional divergence: unmod=%+v iol=%+v", unmod, iol)
	}
	if unmod.Words == 0 {
		t.Fatal("wc counted nothing; synthetic content broken?")
	}
	ratio := float64(iol.Elapsed) / float64(unmod.Elapsed)
	// §5.8: "Using IO-Lite in the wc example reduces execution time by 37%".
	if ratio < 0.50 || ratio > 0.78 {
		t.Fatalf("wc IO-Lite/unmodified = %.2f, want ≈0.63", ratio)
	}
}

func TestCatGrepVariantsAgreeAndSaveMost(t *testing.T) {
	const size = 1 << 20
	pattern := []byte("\x55\xaa") // arbitrary bytes; both variants see the same file
	unmod := CatGrep(NewAppMachine(newWarm(size)), Unmodified, testFile, pattern)
	iol := CatGrep(NewAppMachine(newWarm(size)), IOLite, testFile, pattern)

	if unmod.Matches != iol.Matches {
		t.Fatalf("matches: unmod=%d iol=%d", unmod.Matches, iol.Matches)
	}
	ratio := float64(iol.Elapsed) / float64(unmod.Elapsed)
	// §5.8: grep improves by 48% — three copies eliminated.
	if ratio < 0.38 || ratio > 0.68 {
		t.Fatalf("grep ratio = %.2f, want ≈0.52", ratio)
	}
	if iol.LinesCopied == 0 {
		t.Error("IO-Lite grep never copied a boundary-straddling line; slice handling suspect")
	}
}

func TestPermuteVariantsAgree(t *testing.T) {
	const n = 4 << 20 // scaled-down pipeline; the bench runs the full 145 MB
	unmod := Permute(NewAppMachine(nil), Unmodified, n)
	iol := Permute(NewAppMachine(nil), IOLite, n)

	if unmod.WC.Bytes != n || iol.WC.Bytes != n {
		t.Fatalf("bytes through pipe: %d / %d, want %d", unmod.WC.Bytes, iol.WC.Bytes, n)
	}
	if unmod.WC.Words != iol.WC.Words || unmod.WC.Lines != iol.WC.Lines {
		t.Fatal("permute|wc counts diverge between variants")
	}
	ratio := float64(iol.Elapsed) / float64(unmod.Elapsed)
	// §5.8: permute improves by 33%.
	if ratio < 0.55 || ratio > 0.80 {
		t.Fatalf("permute ratio = %.2f, want ≈0.67", ratio)
	}
}

func TestGCCComputeBound(t *testing.T) {
	files := map[string]int64{}
	names := []string{}
	for i := 0; i < 9; i++ { // scaled: 9 files, ~56 KB (bench runs 27/167KB)
		name := "/src" + string(rune('a'+i)) + ".c"
		files[name] = 6200
		names = append(names, name)
	}
	unmod := GCC(NewAppMachine(files), Unmodified, names)
	iol := GCC(NewAppMachine(files), IOLite, names)

	if unmod.BytesOut != iol.BytesOut || unmod.BytesOut == 0 {
		t.Fatalf("pipeline output: %d / %d", unmod.BytesOut, iol.BytesOut)
	}
	ratio := float64(iol.Elapsed) / float64(unmod.Elapsed)
	// §5.8: "we observe no performance benefit in this test".
	if ratio < 0.97 || ratio > 1.03 {
		t.Fatalf("gcc ratio = %.2f, want ≈1.0 (compute-bound)", ratio)
	}
}

func TestWCWarmCacheNoDisk(t *testing.T) {
	m := NewAppMachine(newWarm(1 << 20))
	m.Disk.ResetMeters()
	WC(m, IOLite, testFile)
	reads, _, _, _ := m.Disk.Stats()
	if reads != 0 {
		t.Fatalf("wc on a warm file hit the disk %d times", reads)
	}
}

func TestSprintFormat(t *testing.T) {
	s := Sprint("wc", 10*sim.Duration(1e6), 6*sim.Duration(1e6))
	if s == "" {
		t.Fatal("empty row")
	}
}
