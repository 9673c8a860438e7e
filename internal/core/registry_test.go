package core

import (
	"reflect"
	"testing"

	"sortlast/internal/partition"
	"sortlast/internal/volume"
)

// The registry serves every list the system previously hardcoded; the
// built-ins must be present with coherent capability flags.
func TestRegistryLists(t *testing.T) {
	if len(PaperMethods()) != 4 {
		t.Fatalf("paper methods: %v", PaperMethods())
	}
	want := []string{"bs", "bsbr", "bslc", "bsbrc", "direct", "bsdpf", "ds", "dfb"}
	if !reflect.DeepEqual(Names(), want) {
		t.Errorf("Names() = %v, want %v", Names(), want)
	}
	for _, name := range want {
		if _, ok := Lookup(name); !ok {
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
		if c.Name() == "" {
			t.Errorf("New(%q) has no display name", s.Name)
		}
	}
}

func TestRegistryUnknown(t *testing.T) {
	if _, err := New("nope"); err == nil {
		t.Error("New must reject unknown names")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup must reject unknown names")
	}
}

// Build adapts every method to a fold plan: foldable methods get the
// fold pre-stage, the owner-routed methods take the plan as geometry.
func TestBuildOverFoldPlan(t *testing.T) {
	plan, err := partition.PlanFold(volume.Box{Hi: [3]int{32, 32, 32}}, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range registry {
		comp, err := Build(s.Name, 0, 0, plan)
		if err != nil {
			t.Errorf("%s: %v", s.Name, err)
			continue
		}
		if _, folded := comp.(*Folded); folded != s.Caps.Foldable {
			t.Errorf("%s: folded = %v, want %v", s.Name, folded, s.Caps.Foldable)
		}
	}
	if _, err := Build("nope", 0, 0, plan); err == nil {
		t.Error("Build must reject unknown names")
	}
}
