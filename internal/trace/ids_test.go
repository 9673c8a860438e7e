package trace

import "testing"

func TestIDRoundTrip(t *testing.T) {
	for i := 0; i < 100; i++ {
		id := NewID()
		if id == 0 {
			t.Fatal("NewID returned the absent ID")
		}
		s := id.String()
		if len(s) != 16 {
			t.Fatalf("ID %v formats to %q, want 16 hex digits", uint64(id), s)
		}
		back, err := parseID(s)
		if err != nil || back != id {
			t.Fatalf("parseID(%q) = %v, %v, want %v", s, back, err, id)
		}
	}
	if ID(0).String() != "" {
		t.Fatalf("zero ID formats to %q, want empty", ID(0).String())
	}
	if id, err := parseID(""); id != 0 || err != nil {
		t.Fatalf("parseID(\"\") = %v, %v, want 0, nil", id, err)
	}
	if _, err := parseID("not-hex"); err == nil {
		t.Fatal("parseID accepted garbage")
	}
	var nilCtx *Context
	if nilCtx.Trace() != 0 {
		t.Fatal("nil context has a trace ID")
	}
	if c := NewContext(); !c.Sampled || c.Trace() == 0 {
		t.Fatalf("fresh context = %+v", c)
	}
}
