package vfg

import "testing"

// certified runs the analysis under the fixpoint certificate.
func certified(t *testing.T, cfg Config) *Result {
	t.Helper()
	r, err := Certify(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestTopDownFlowThroughGlobal: check loads g, which main stores only
// after the call. Round 1 solves check (bottom-up, g still clean), then
// main; main's store dirties check alone, so round 2 solves only check,
// whose summary does not change.
func TestTopDownFlowThroughGlobal(t *testing.T) {
	r := certified(t, configOf(t, preamble+`
double g;
void check()
{
	double v;
	v = g;
	/***SafeFlow Annotation assert(safe(v)) /***/
	writeDA(0, v);
}
int main()
{
	initComm();
	check();
	g = nc->a;
	return 0;
}
`, 1))
	if e := onlyError(t, r); e.Var != "v" || e.FnName != "check" {
		t.Errorf("error = %s", e)
	}
	if r.Rounds != 2 || r.UnitsAnalyzed != 3 {
		t.Errorf("rounds = %d, solves = %d; want 2 rounds, round 2 solving check alone", r.Rounds, r.UnitsAnalyzed)
	}
}

// TestTopDownFlowBackToCaller: get returns g, which main stores after the
// call. Round 2 re-solves get for the store; its summary changes, which
// dirties main in the same wave, and main's assert sees the taint.
func TestTopDownFlowBackToCaller(t *testing.T) {
	r := certified(t, configOf(t, preamble+`
double g;
double get() { return g; }
int main()
{
	double u;
	initComm();
	u = get();
	/***SafeFlow Annotation assert(safe(u)) /***/
	writeDA(0, u);
	g = nc->a;
	return 0;
}
`, 1))
	if e := onlyError(t, r); e.Var != "u" || e.FnName != "main" {
		t.Errorf("error = %s", e)
	}
	if r.Rounds != 2 || r.UnitsAnalyzed != 4 {
		t.Errorf("rounds = %d, solves = %d; want 2 rounds solving both units twice", r.Rounds, r.UnitsAnalyzed)
	}
}

// TestIndependentSCCsShareMemory: put and take are independent SCCs, so
// at two workers they solve concurrently; put writes g, take loads it.
// Whichever finishes first, the driver must re-solve take if put's write
// landed after take's solve began. Run it under -race.
func TestIndependentSCCsShareMemory(t *testing.T) {
	src := preamble + `
double g;
void put() { g = nc->a; }
void take()
{
	double v;
	v = g;
	/***SafeFlow Annotation assert(safe(v)) /***/
	writeDA(0, v);
}
int main()
{
	initComm();
	take();
	put();
	return 0;
}
`
	for i := 0; i < 20; i++ {
		r := certified(t, configOf(t, src, 2))
		if e := onlyError(t, r); e.FnName != "take" {
			t.Fatalf("iteration %d: error = %s", i, e)
		}
	}
}
