package mitigate

import "testing"

func TestPolicyStringParseRoundTrip(t *testing.T) {
	for _, p := range []Policy{PolicyDetect, PolicyCorrect, PolicyCorrectOrSkip} {
		got, err := ParsePolicy(p.String())
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", p.String(), err)
		}
		if got != p {
			t.Fatalf("round trip %v -> %q -> %v", p, p.String(), got)
		}
	}
	if _, err := ParsePolicy("retry-forever"); err == nil {
		t.Fatal("ParsePolicy accepted an unknown policy")
	}
}

func TestActionString(t *testing.T) {
	for a, want := range map[Action]string{
		ActionDetect:  "detect",
		ActionCorrect: "correct",
		ActionSkip:    "skip",
	} {
		if got := a.String(); got != want {
			t.Fatalf("Action(%d).String() = %q, want %q", a, got, want)
		}
	}
}

// respondCase drives Respond with a recompute that writes `clean` and a
// verify that reports `verifies`.
func respondCase(t *testing.T, p Policy, verifies bool) (Action, []float32) {
	t.Helper()
	out := []float32{9, 9, 9}
	scratch := make([]float32, len(out))
	clean := []float32{1, 2, 3}
	recomputed := false
	act := Respond(p, out, scratch,
		func(dst []float32) { recomputed = true; copy(dst, clean) },
		func(cand []float32) bool { return verifies })
	if p == PolicyDetect && recomputed {
		t.Fatal("detect-only policy recomputed")
	}
	if p != PolicyDetect && !recomputed {
		t.Fatal("correcting policy never recomputed")
	}
	return act, out
}

func TestRespondDetectOnly(t *testing.T) {
	act, out := respondCase(t, PolicyDetect, true)
	if act != ActionDetect {
		t.Fatalf("action = %v, want detect", act)
	}
	for _, v := range out {
		if v != 9 {
			t.Fatal("detect-only policy mutated the output")
		}
	}
}

func TestRespondCorrectSucceeds(t *testing.T) {
	for _, p := range []Policy{PolicyCorrect, PolicyCorrectOrSkip} {
		act, out := respondCase(t, p, true)
		if act != ActionCorrect {
			t.Fatalf("policy %v: action = %v, want correct", p, act)
		}
		for i, want := range []float32{1, 2, 3} {
			if out[i] != want {
				t.Fatalf("policy %v: out[%d] = %g, want recomputed %g", p, i, out[i], want)
			}
		}
	}
}

func TestRespondCorrectFailsWithoutSkip(t *testing.T) {
	act, out := respondCase(t, PolicyCorrect, false)
	if act != ActionDetect {
		t.Fatalf("action = %v, want detect (unverified recompute must not land)", act)
	}
	for _, v := range out {
		if v != 9 {
			t.Fatal("unverified recompute overwrote the output")
		}
	}
}

func TestRespondSkipZeroes(t *testing.T) {
	act, out := respondCase(t, PolicyCorrectOrSkip, false)
	if act != ActionSkip {
		t.Fatalf("action = %v, want skip", act)
	}
	for _, v := range out {
		if v != 0 {
			t.Fatal("skip left nonzero output")
		}
	}
}

// TestRespondWithoutRecompute: a nil recompute (the recomputation would
// reproduce the output) takes the action a recompute that fails to verify
// takes, and never calls verify.
func TestRespondWithoutRecompute(t *testing.T) {
	for p, want := range map[Policy][]float32{
		PolicyDetect:        {9, 9, 9},
		PolicyCorrect:       {9, 9, 9},
		PolicyCorrectOrSkip: {0, 0, 0},
	} {
		wantAct, _ := respondCase(t, p, false)
		out := []float32{9, 9, 9}
		act := Respond(p, out, nil, nil, func([]float32) bool {
			t.Fatalf("policy %v: verified without a recompute", p)
			return false
		})
		if act != wantAct {
			t.Fatalf("policy %v: action %v without a recompute, %v with a failing one", p, act, wantAct)
		}
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("policy %v: out = %v, want %v", p, out, want)
			}
		}
	}
}
