package core

import (
	"reflect"
	"testing"
)

// The registry serves every list the system previously hardcoded; the
// built-ins must be present with coherent capability flags.
func TestRegistryLists(t *testing.T) {
	if len(PaperMethods()) != 4 {
		t.Fatalf("paper methods: %v", PaperMethods())
	}
	want := []string{"bs", "bsbr", "bslc", "bsbrc", "direct", "ds", "dfb"}
	if !reflect.DeepEqual(Names(), want) {
		t.Errorf("Names() = %v, want %v", Names(), want)
	}
	for _, name := range want {
		if _, ok := lookup(name); !ok {
			t.Errorf("built-in %q not registered", name)
		}
	}
	names := map[string]bool{}
	for _, s := range registry {
		if names[s.Name] {
			t.Errorf("duplicate spec %q", s.Name)
		}
		names[s.Name] = true
		c, err := New(s.Name)
		if err != nil {
			t.Fatalf("New(%q): %v", s.Name, err)
		}
		if nameOf(c) == "" {
			t.Errorf("New(%q) has no display name", s.Name)
		}
	}
}

func TestRegistryUnknown(t *testing.T) {
	if _, err := New("nope"); err == nil {
		t.Error("New must reject unknown names")
	}
	if _, ok := lookup("nope"); ok {
		t.Error("lookup must reject unknown names")
	}
}

// Build returns every method on its schedule: the paper's methods on
// the swap schedule, which runs the fold when ranks fold, the others on
// owner-merge, which needs only the rank geometry.
func TestBuildOverFoldPlan(t *testing.T) {
	for _, s := range registry {
		comp, err := Build(s.Name, 0)
		if err != nil {
			t.Errorf("%s: %v", s.Name, err)
			continue
		}
		if _, swap := comp.(*swapLoop); swap != s.Caps.Paper {
			t.Errorf("%s: on the swap schedule = %v, want %v", s.Name, swap, s.Caps.Paper)
		}
	}
	if _, err := Build("nope", 0); err == nil {
		t.Error("Build must reject unknown names")
	}
}
