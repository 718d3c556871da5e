package datagen

import (
	"math"
	"strings"
	"testing"
)

// TestBuildNamedRefusesUnbuildableScales: a scale that is not finite,
// or that scales a table past math.MaxInt32 rows, is an error for every
// named database — not a panic in the generator and not a silently
// one-row database.
func TestBuildNamedRefusesUnbuildableScales(t *testing.T) {
	for _, name := range []string{"tpcd", "synthetic1", "synthetic2"} {
		for _, scale := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300} {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s at scale %v: panic %v, want an error", name, scale, r)
					}
				}()
				db, err := BuildNamed(name, scale, 1)
				if err == nil || db != nil {
					t.Errorf("%s at scale %v: built a database (error %v), want a refusal", name, scale, err)
				} else if !strings.Contains(err.Error(), "scale") {
					t.Errorf("%s at scale %v: error %q does not name the scale", name, scale, err)
				}
			}()
		}
	}
}

// TestBuildNamedTinyScaleKeepsARow: a positive scale too small for one
// row of a table builds that table with one row, as ScaledTPCD does.
func TestBuildNamedTinyScaleKeepsARow(t *testing.T) {
	for _, name := range []string{"tpcd", "synthetic1", "synthetic2"} {
		db, err := BuildNamed(name, 1e-9, 1)
		if err != nil {
			t.Fatalf("%s at scale 1e-9: %v", name, err)
		}
		for _, tab := range db.Schema().Tables() {
			if n := db.TableStats(tab.Name).RowCount; n != 1 {
				t.Errorf("%s at scale 1e-9: table %s has %d rows, want 1", name, tab.Name, n)
			}
		}
	}
}
