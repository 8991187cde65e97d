package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestQuickFigureGoldens pins the fast quick figures byte for byte. The
// simulator is deterministic, so any change in a figure's text is a change
// in behaviour: a refactor must leave these files untouched, and a change
// that moves a figure on purpose regenerates them in the same commit.
//
// testdata/quick/<fig>.txt holds what `webbench -fig <fig> -quick` prints
// before its "(figure … regenerated in …)" line. Figures 3, 4, 5, 6 and
// proxy are pinned there too, but take about a minute together, so CI
// diffs them instead of this test. Figures 8, 10, 11 and 12 are not
// pinned: their cache eviction order is not yet the same in every process.
// To regenerate every pinned figure, from the repository root:
//
//	for f in 3 4 5 6 7 9 13 proxy fcgi fcginet chaos qos; do
//	  go run ./cmd/webbench -fig $f -quick | awk '/^\(figure /{exit} 1' \
//	    > internal/experiments/testdata/quick/$f.txt
//	done
func TestQuickFigureGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("runs seven quick figures")
	}
	figs := []struct {
		name string
		fn   func(Options) *Table
	}{
		{"7", Fig7}, {"9", Fig9}, {"13", Fig13},
		{"fcgi", FigFCGI}, {"fcginet", FigFCGINet}, {"chaos", FigChaos}, {"qos", FigQoS},
	}
	for _, f := range figs {
		t.Run(f.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "quick", f.name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			// webbench prints each table with Println.
			if got := fmt.Sprintln(f.fn(Options{Quick: true}).Format()); got != string(want) {
				t.Errorf("quick figure %s differs from its golden file\ngot:\n%s\nwant:\n%s", f.name, got, want)
			}
		})
	}
}
