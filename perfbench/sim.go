package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/stm"
	"repro/internal/vacation"
)

const (
	simName  = "sim-vacation"
	simCores = 32
	// simBatchTx is the transactions each simulated core runs per batch.
	// The timed phase runs one batch per second of its nominal length: a
	// fixed amount of simulated work, since the tables Vacation mutates
	// drift as it runs and a host-speed change must not change how far.
	simBatchTx = 96
	// simSetUps is how many machines a timed run builds and populates to
	// time its set-up; it measures on the last.
	simSetUps = 4
)

// simMachine builds the 32-core machine and populates the tables, as
// harness.VacationExperiment.runOne does.
type simMachine struct {
	cfg machine.Config
	m   *machine.Machine
	tm  *stm.TM
	mgr *vacation.Manager
}

func newSimMachine(seed int64) *simMachine {
	cfg := machine.DefaultConfig(simCores)
	cfg.MemBytes = 512 << 20
	// Read sets span tens of lines; runOne models a larger Max_Tags so the
	// tagged fast path covers typical transactions.
	cfg.MaxTags = 256
	m := machine.New(cfg)
	tm := stm.NewTagged(m)
	mgr := vacation.NewManager(m, tm)
	vacation.Populate(mgr, m.Thread(0), vacation.PaperParams(), seed)
	return &simMachine{cfg: cfg, m: m, tm: tm, mgr: mgr}
}

// simPhase accumulates the timed batches.
type simPhase struct {
	tx       uint64
	cycles   uint64 // simulated duration: sum of each batch's slowest-core delta
	aborts   uint64
	delta    machine.Stats
	lat      latHist // per-transaction simulated latency, cycles
	elapsed  time.Duration
	cpuPerTx []float64 // host CPU µs per transaction, per batch
}

// batch runs simBatchTx transactions on every core, one Client call per
// transaction so each one's simulated latency can be read off the core's
// clock.
func (s *simMachine) batch(ph *simPhase, seed int64, n int) {
	s.m.BeginEpoch()
	before := s.m.Snapshot()
	aborts := s.tm.Aborts.Load()
	p := vacation.PaperParams()
	p.Transactions = 1
	hists := make([]latHist, simCores)
	var ready, wg sync.WaitGroup
	start := make(chan struct{})
	ready.Add(simCores)
	wg.Add(simCores)
	for w := 0; w < simCores; w++ {
		go func(w int) {
			defer wg.Done()
			th := s.m.Thread(w).(*machine.Thread)
			th.SetActive(true)
			defer th.SetActive(false)
			ready.Done()
			<-start
			for i := 0; i < simBatchTx; i++ {
				c0, _ := th.OpClock()
				vacation.Client(s.mgr, th, p, seed+int64(n)*1_000_003+int64(w)*10_007+int64(i))
				c1, _ := th.OpClock()
				hists[w].observe(c1 - c0)
			}
		}(w)
	}
	ready.Wait()
	close(start)
	wg.Wait()
	after := s.m.Snapshot()
	for i := range hists {
		ph.lat.merge(&hists[i])
	}
	ph.tx += simCores * simBatchTx
	ph.cycles += after.MaxCycles - before.MaxCycles
	ph.aborts += s.tm.Aborts.Load() - aborts
	addStats(&ph.delta, &before, &after)
}

// addStats accumulates after-before into acc for the counters the report
// uses.
func addStats(acc, before, after *machine.Stats) {
	acc.L1Hits += after.L1Hits - before.L1Hits
	acc.L2Hits += after.L2Hits - before.L2Hits
	acc.RemoteFills += after.RemoteFills - before.RemoteFills
	acc.MemFills += after.MemFills - before.MemFills
	acc.InvalidationsSent += after.InvalidationsSent - before.InvalidationsSent
	acc.Validates += after.Validates - before.Validates
	acc.ValidateFails += after.ValidateFails - before.ValidateFails
	acc.Energy += after.Energy - before.Energy
}

// runSim is the sim-vacation workload: STAMP Vacation on tagged NOrec on
// the simulated machine. Its clock is simulated time: throughput_rps is
// committed transactions per simulated second and p50/p99 are simulated
// per-transaction latencies; cpu_us_per_req is the host's cost, the median
// over batches.
func runSim(seed int64, d time.Duration, traced bool, profile string) (*report, error) {
	// Serializability pre-flight, as VacationExperiment.Verify runs it: a
	// throughput from a non-serializable STM is meaningless.
	pre := &harness.VacationExperiment{Params: vacation.PaperParams()}
	var problems []string
	if err := pre.VerifySerializable(); err != nil {
		problems = append(problems, "serializability pre-flight: "+err.Error())
	}
	setups := simSetUps
	if traced {
		setups = 1
	}
	// Host cost is process CPU time, not scaled to a reference speed
	// (hostspeed.go). On the reference host the simulator's CPU cost per
	// transaction held fairly still from one set of runs to the next
	// (medians 597, 598 and 548 µs) and followed the kernel's slowdown at slope 0.27
	// only, so dividing by the slowdown widened its spread (IQR/median
	// 0.20 scaled, 0.11 raw). Set-up is counted in CPU time too: it is
	// one thread populating the tables, and in one episode in which the
	// host withheld CPU its wall time rose by 75% while the CPU cost per
	// transaction held.
	var s *simMachine
	var setupS []float64
	for i := 0; i < setups; i++ {
		runtime.GC()
		cpu0 := cpuTime()
		s = newSimMachine(seed)
		setupS = append(setupS, (cpuTime() - cpu0).Seconds())
	}

	stopProfile := func() error { return nil }
	if profile != "" {
		var err error
		if stopProfile, err = startProfile(profile); err != nil {
			return nil, err
		}
	}
	ph := &simPhase{}
	for n := 0; n < int(d.Seconds()); n++ {
		runtime.GC()
		cpu0, t0 := cpuTime(), time.Now()
		s.batch(ph, seed, n)
		ph.elapsed += time.Since(t0)
		ph.cpuPerTx = append(ph.cpuPerTx, (cpuTime()-cpu0).Seconds()*1e6/(simCores*simBatchTx))
	}
	if err := stopProfile(); err != nil {
		return nil, err
	}
	heap := heapInUse()
	if ok, detail := s.mgr.CheckTables(s.m.Thread(0)); !ok {
		problems = append(problems, "CheckTables: "+detail)
	}

	tx := float64(ph.tx)
	simSec := float64(ph.cycles) / s.cfg.ClockHz
	cyclesToUS := 1e6 / s.cfg.ClockHz
	var r *report
	if traced {
		r = newReport(simName, perLayer)
		acc := ph.delta.Accesses()
		r.set("machine.l1_miss_pct", 100*float64(ph.delta.Misses())/float64(max(acc, 1)))
		r.set("machine.accesses_per_tx", float64(acc)/tx)
		r.set("machine.remote_fills_per_tx", float64(ph.delta.RemoteFills)/tx)
		r.set("machine.inv_per_tx", float64(ph.delta.InvalidationsSent)/tx)
		r.set("machine.validates_per_tx", float64(ph.delta.Validates)/tx)
		r.set("machine.validate_fail_pct", 100*float64(ph.delta.ValidateFails)/float64(max(ph.delta.Validates, 1)))
		r.set("machine.energy_per_tx", ph.delta.Energy/tx)
		r.set("stm.sim_aborts_per_tx", float64(ph.aborts)/tx)
		r.set("sim_ktx_s", tx/simSec/1e3)
		r.set("host_us_per_sim_tx", ph.elapsed.Seconds()*1e6/tx)
		r.set("load.samples", float64(ph.lat.n))
	} else {
		r = newReport(simName, endToEnd)
		r.set("throughput_rps", tx/simSec)
		r.set("p50_us", ph.lat.quantile(0.50)*cyclesToUS)
		r.set("p99_us", ph.lat.quantile(0.99)*cyclesToUS)
		r.set("cpu_us_per_req", median(ph.cpuPerTx))
		r.set("setup_s", median(setupS))
		r.set("heap_mb", float64(heap)/(1<<20))
		r.extra["sim_ktx_s"] = tx / simSec / 1e3
		r.extra["host_us_per_sim_tx"] = ph.elapsed.Seconds() * 1e6 / tx
		r.extra["latency_samples"] = float64(ph.lat.n)
	}
	r.attempted = ph.tx
	r.problems = problems
	return r, nil
}

// startProfile starts the CPU profile and returns its stop function.
func startProfile(path string) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}
