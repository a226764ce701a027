package streamdiscipline

import (
	"reflect"
	"testing"

	"github.com/gmrl/househunt/internal/rng"
)

// nonDrawMethods are the exported rng.Source methods that never advance the
// stream they are called on.
var nonDrawMethods = map[string]bool{
	"Split": true, "SplitInto": true, "Reseed": true, "State": true,
}

// TestDrawMethodsCoverSource classifies every exported *rng.Source method,
// so a new draw kernel cannot slip past SD1/SD4 by being missing from
// drawMethods.
func TestDrawMethodsCoverSource(t *testing.T) {
	t.Parallel()
	typ := reflect.TypeOf((*rng.Source)(nil))
	for i := 0; i < typ.NumMethod(); i++ {
		name := typ.Method(i).Name
		switch {
		case drawMethods[name] && nonDrawMethods[name]:
			t.Errorf("rng.Source.%s is listed both as a draw and as a non-draw method", name)
		case !drawMethods[name] && !nonDrawMethods[name]:
			t.Errorf("rng.Source.%s is unclassified: add it to drawMethods if it advances the stream, else to nonDrawMethods", name)
		}
	}
	for name := range drawMethods {
		if _, ok := typ.MethodByName(name); !ok {
			t.Errorf("drawMethods names %s, which rng.Source does not have", name)
		}
	}
}
