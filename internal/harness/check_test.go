package harness

import (
	"strings"
	"testing"
)

// NewPlan's validation must reject every bad field with a precise
// error before it generates a volume or builds a world — it is the
// admission filter the serving tier and the CLIs rely on.
func TestConfigCheck(t *testing.T) {
	ok := Config{Dataset: "cube", Method: "bsbrc", Width: 32, Height: 32, P: 4}
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string // substring of the error; empty means valid
	}{
		{"valid", func(*Config) {}, ""},
		{"unknown dataset", func(c *Config) { c.Dataset = "nope" }, "unknown dataset"},
		{"zero width", func(c *Config) { c.Width = 0 }, "image size"},
		{"negative height", func(c *Config) { c.Height = -1 }, "image size"},
		{"zero P", func(c *Config) { c.P = 0 }, "P = 0"},
		{"unknown method", func(c *Config) { c.Method = "nope" }, "have bs, bsbr, bslc, bsbrc, direct, ds, dfb"},
		// The names of retired methods are unknown methods like any other.
		{"retired method name", func(c *Config) { c.P = 6; c.Method = `auto` }, "unknown compositor"},
		{"retired pipeline", func(c *Config) { c.Method = "pipeline" }, "unknown compositor"},
		{"retired bintree", func(c *Config) { c.Method = "bintree" }, "unknown compositor"},
		{"retired bsvc", func(c *Config) { c.Method = "bsvc" }, "unknown compositor"},
		{"retired bsbrlc", func(c *Config) { c.Method = "bsbrlc" }, "unknown compositor"},
		{"retired bsdpf", func(c *Config) { c.Method = "bsdpf" }, "unknown compositor"},
		{"non-pow2 binary swap ok", func(c *Config) { c.P = 6 }, ""},
		{"non-pow2 direct send", func(c *Config) { c.P = 6; c.Method = "direct" }, ""},
		{"non-pow2 ds ok", func(c *Config) { c.P = 6; c.Method = "ds" }, ""},
		{"non-pow2 dfb ok", func(c *Config) { c.P = 6; c.Method = "dfb" }, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ok
			tc.mutate(&cfg)
			_, err := NewPlan(cfg)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("NewPlan = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("NewPlan succeeded, want error mentioning %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// A caller-provided volume skips the dataset lookup but still needs a
// resolvable transfer function.
func TestConfigCheckCallerVolume(t *testing.T) {
	vol, tf, err := Dataset("cube")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Dataset: "custom", Method: "bs", Width: 16, Height: 16, P: 2}
	cfg.Volume = vol
	if _, err := NewPlan(cfg); err == nil {
		t.Error("caller volume with unresolvable transfer preset must fail NewPlan")
	}
	cfg.TF = tf
	if _, err := NewPlan(cfg); err != nil {
		t.Errorf("caller volume with explicit TF: NewPlan = %v, want nil", err)
	}
}
