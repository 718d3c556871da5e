package datagen

import (
	"fmt"
	"math"
	"strings"

	"indexmerge/internal/engine"
)

// BuildNamed builds a database from a spec string shared by every
// entry point (the CLIs and idxmerged sessions): "tpcd", "synthetic1",
// "synthetic2" — scaled and seeded — or "file:PATH" for a saved
// snapshot. The build is deterministic in (name, scale, seed): two
// builds of the same spec agree on data and statistics, and therefore
// on what-if costs (engine.Database.Fingerprint is the identity tests
// compare). A scale <= 0 means 1, and every table keeps at least one
// row; a scale that is not finite, or whose largest scaled table would
// hold more than math.MaxInt32 rows, is refused.
func BuildNamed(name string, scale float64, seed int64) (*engine.Database, error) {
	if strings.HasPrefix(name, "file:") {
		return engine.LoadSnapshotFile(strings.TrimPrefix(name, "file:"))
	}
	if math.IsNaN(scale) || math.IsInf(scale, 0) {
		return nil, fmt.Errorf("database scale %v is not a finite number", scale)
	}
	if scale <= 0 {
		scale = 1
	}
	fits := func(rows int) error {
		if float64(rows)*scale > math.MaxInt32 {
			return fmt.Errorf("database scale %g makes a %s table of %.3g rows, more than %d", scale, name, float64(rows)*scale, math.MaxInt32)
		}
		return nil
	}
	switch name {
	case "tpcd":
		if err := fits(DefaultTPCDScale().Lineitem); err != nil { // the largest table
			return nil, err
		}
		return BuildTPCD(ScaledTPCD(scale), seed)
	case "synthetic1", "synthetic2":
		spec := Synthetic1Spec()
		if name == "synthetic2" {
			spec = Synthetic2Spec()
		}
		if err := fits(spec.RowsPer); err != nil {
			return nil, err
		}
		spec.RowsPer = max(1, int(float64(spec.RowsPer)*scale)) // as ScaledTPCD: at least a row
		spec.Seed += seed
		return BuildSynthetic(spec)
	}
	return nil, fmt.Errorf("unknown database %q (want tpcd, synthetic1, synthetic2 or file:PATH)", name)
}
