package consensus

import (
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/internal/fd"
)

// oraclePatterns covers every shape of the pre-stabilization table: no
// transition, a crash at t = 0, crashes before and after stab, several
// transitions at one time, and a crash-recovery.
func oraclePatterns() map[string]*dist.FailurePattern {
	late := dist.NewFailurePattern(5)
	late.CrashAt(2, 10)
	late.CrashAt(4, 200)
	same := dist.NewFailurePattern(6)
	same.CrashAt(1, 7)
	same.CrashAt(6, 7)
	same.CrashAt(3, 0)
	rec := dist.NewFailurePattern(5)
	rec.CrashAt(3, 5)
	rec.RecoverAt(3, 60)
	rec.CrashAt(1, 90)
	return map[string]*dist.FailurePattern{
		"failure-free":   dist.NewFailurePattern(4),
		"crash at 0":     dist.CrashPattern(5, 1, 5),
		"early and late": late,
		"same-time":      same,
		"recovery":       rec,
	}
}

// TestOracleMatchesOmegaAndSigma checks the pre-boxed table against its
// definition: the fd.OmegaOracle leader paired with the Σ trusted set, at
// every process and every t < 400.
func TestOracleMatchesOmegaAndSigma(t *testing.T) {
	for name, f := range oraclePatterns() {
		for _, stab := range []dist.Time{0, 1, 25, 150} {
			o := NewOracle(f, stab)
			omega, sigma := &fd.OmegaOracle{F: f, Stab: stab}, fd.NewSigma(f, stab)
			for p := dist.ProcID(1); int(p) <= f.N(); p++ {
				for tick := dist.Time(0); tick < 400; tick++ {
					want := FD{
						Leader:  omega.Output(p, tick).(dist.ProcID),
						Trusted: sigma.Output(p, tick).(fd.TrustList).Trusted,
					}
					if got := o.Output(p, tick); got != any(want) {
						t.Fatalf("%s stab=%d: H(p%d,%d) = %+v, want %+v", name, stab, int(p), int64(tick), got, want)
					}
				}
			}
		}
	}
}

// TestOracleOutputDoesNotAllocate: every output is boxed by NewOracle.
func TestOracleOutputDoesNotAllocate(t *testing.T) {
	for name, f := range oraclePatterns() {
		o := NewOracle(f, 150)
		allocs := testing.AllocsPerRun(10, func() {
			for p := dist.ProcID(1); int(p) <= f.N(); p++ {
				for tick := dist.Time(0); tick < 400; tick++ {
					_ = o.Output(p, tick)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per horizon of Output", name, allocs)
		}
	}
}

// TestOracleConcurrentFirstReads reads one fresh oracle from several
// goroutines at once, as Sweep's workers do; under -race any write on the
// read path fails the test.
func TestOracleConcurrentFirstReads(t *testing.T) {
	for name, f := range oraclePatterns() {
		o := NewOracle(f, 25)
		want := NewOracle(f, 25)
		var wg sync.WaitGroup
		errs := make(chan string, 4)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for tick := dist.Time(0); tick < 100; tick++ {
					for p := dist.ProcID(1); int(p) <= f.N(); p++ {
						if o.Output(p, tick) != want.Output(p, tick) {
							errs <- name
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Errorf("%s: concurrent reads disagree with a private oracle", e)
		}
	}
}
