package fleet

import "testing"

// The scorer is deterministic: least outstanding work wins, ties break
// to the lowest index.
func TestPickLeastOutstandingTieBreak(t *testing.T) {
	cases := []struct {
		name  string
		cands []pickCandidate
		want  int
	}{
		{"least loaded wins", []pickCandidate{{Outstanding: 3}, {Outstanding: 1}, {Outstanding: 2}}, 1},
		{"tie breaks to lowest index", []pickCandidate{{Outstanding: 2}, {Outstanding: 2}, {Outstanding: 2}}, 0},
		{"partial tie breaks to lowest index", []pickCandidate{{Outstanding: 5}, {Outstanding: 2}, {Outstanding: 2}}, 1},
		{"excluded candidates are skipped", []pickCandidate{{Outstanding: 0, Excluded: true}, {Outstanding: 7}}, 1},
		{"all excluded yields -1", []pickCandidate{{Excluded: true}, {Excluded: true}}, -1},
		{"empty set yields -1", nil, -1},
		{"penalty pushes a suspect behind a loaded healthy replica",
			[]pickCandidate{{Outstanding: 0, Penalty: suspectPenalty}, {Outstanding: 40}}, 1},
		{"a suspect is still picked when it is all that remains",
			[]pickCandidate{{Outstanding: 0, Penalty: suspectPenalty}, {Excluded: true}}, 0},
		{"degraded ranks behind healthy but ahead of suspect",
			[]pickCandidate{{Penalty: suspectPenalty}, {Penalty: degradedPenalty}}, 1},
	}
	for _, tc := range cases {
		if got := pickReplica(tc.cands); got != tc.want {
			t.Errorf("%s: pickReplica = %d, want %d", tc.name, got, tc.want)
		}
	}
}
