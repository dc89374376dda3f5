package trace

import (
	"reflect"
	"testing"
)

// This test pins the order-insensitivity claim behind AnalyzeProfile's one
// loop over a map (kernel.go): its comment says map iteration order cannot be
// observed in the output, so repeated runs must agree bit for bit.

func TestAnalyzeProfileDeterministic(t *testing.T) {
	for _, prof := range Profiles() {
		a := AnalyzeProfile(prof, 200000, 7)
		b := AnalyzeProfile(prof, 200000, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: AnalyzeProfile not deterministic:\n%+v\n%+v", prof.Name, a, b)
		}
	}
}
