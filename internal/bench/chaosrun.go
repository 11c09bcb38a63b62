package bench

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"neobft/internal/chaos"
	"neobft/internal/protocol"
	"neobft/internal/simnet"
)

// ChaosConfig parameterizes one chaos-gauntlet run: a scenario from the
// library executed against one protocol under a fixed seed.
type ChaosConfig struct {
	Protocol Protocol
	Scenario string
	// Seed drives both the fault schedule and the simulated network, so
	// a failing run replays exactly from (scenario, protocol, seed).
	Seed int64
	// Short halves the load window (CI mode).
	Short bool
	// OutDir, when non-empty, receives replay artifacts: the schedule
	// text always, plus a flight-recorder trace dump when the safety
	// check fails.
	OutDir string
	// DataDir arms durable replica state for the run (Options.DataDir).
	// Empty defaults to a throwaway temp dir for the kill-recover
	// scenario — whose whole point is rebooting from disk — and to
	// in-memory state for every other scenario.
	DataDir string
}

// ErrRefused is returned (wrapped) by RunChaos for a scenario that
// exercises a capability the protocol does not have.
var ErrRefused = errors.New("chaos scenario refused")

// missingCapability names what a scenario needs that spec lacks, or "".
// Without the check the fault lands on a system in which nothing reacts
// to it — a leader partition no view change answers (EXPERIMENTS.md
// deviation 4), a sequencer crash with no sequencer — and the run would
// print SAFE for a property it never exercised.
func missingCapability(spec *protocol.Spec, scenario string) string {
	switch {
	case scenario == "view-change" && !spec.ViewChange:
		return "view change"
	case scenario == "seq-failover" && !spec.Sequencer():
		return "sequencer"
	}
	return ""
}

// RunChaos executes one chaos scenario and reports whether the run was
// safe. The error return covers setup problems (unknown scenario or
// protocol) and refusals (ErrRefused); a safety violation is ok=false
// with a full report written to w.
func RunChaos(w io.Writer, c ChaosConfig) (ok bool, err error) {
	spec, err := protocol.Lookup(string(c.Protocol))
	if err != nil {
		return false, err
	}
	horizon := 3 * time.Second
	if c.Short {
		horizon = 1500 * time.Millisecond
	}
	sched, err := chaos.Scenario(c.Scenario, chaos.ScenarioConfig{
		Seed:     c.Seed,
		Horizon:  horizon,
		Replicas: spec.FleetSize(0),
	})
	if err != nil {
		return false, err
	}
	if missing := missingCapability(spec, c.Scenario); missing != "" {
		fmt.Fprintf(w, "=== chaos %s / %s ===\n  REFUSED: %s has no %s\n", c.Scenario, c.Protocol, c.Protocol, missing)
		return false, fmt.Errorf("%w: %s has no %s", ErrRefused, c.Protocol, missing)
	}
	fmt.Fprintf(w, "=== chaos %s / %s ===\n%s", c.Scenario, c.Protocol, sched)

	dataDir := c.DataDir
	if dataDir == "" && c.Scenario == "kill-recover" {
		tmp, err := os.MkdirTemp("", "neobft-chaos-*")
		if err != nil {
			return false, err
		}
		defer os.RemoveAll(tmp)
		dataDir = tmp
	}
	if dataDir != "" {
		fmt.Fprintf(w, "  durable state under %s\n", dataDir)
	}
	sys := Build(Options{
		Protocol:           c.Protocol,
		CheckpointInterval: 32,
		ClientTimeout:      200 * time.Millisecond,
		Net:                simnet.Options{Seed: c.Seed},
		Chaos:              sched,
		DataDir:            dataDir,
		PersistEvery:       25 * time.Millisecond,
	})
	defer sys.Close()
	res := Run(sys, Load{
		Clients:   4,
		Warmup:    200 * time.Millisecond,
		Duration:  horizon,
		OpTimeout: 5 * time.Second,
	})
	if res.Chaos == nil {
		return false, fmt.Errorf("chaos schedule armed but produced no outcome")
	}

	rep := res.Chaos.Report
	for _, line := range rep.Applied {
		fmt.Fprintf(w, "  applied %s\n", line)
	}
	for _, rec := range rep.Recoveries {
		status := fmt.Sprintf("caught up in %v", rec.Latency.Round(time.Millisecond))
		if !rec.CaughtUp {
			status = "never caught up"
		}
		fmt.Fprintf(w, "  recovery replica %d: %s\n", rec.Replica, status)
	}
	check := res.Chaos.Check
	fmt.Fprintf(w, "  committed=%d acked-checked=%d divergence=%d net-seed=%d\n",
		res.Committed, check.AckedChecked, check.Divergence, res.Seed)

	safe := check.Ok()
	if safe {
		fmt.Fprintf(w, "  SAFE (schedule digest %s)\n", sched.Digest())
	} else {
		fmt.Fprintf(w, "  UNSAFE — %d violation(s):\n", len(check.Violations))
		for _, v := range check.Violations {
			fmt.Fprintf(w, "    %s\n", v)
		}
		fmt.Fprintf(w, "  replay: neobench -chaos %s -chaos-protocol %s -seed %d\n",
			c.Scenario, c.Protocol, c.Seed)
	}
	if c.OutDir != "" {
		if aerr := writeChaosArtifacts(c, sys, sched, &res, safe); aerr != nil {
			fmt.Fprintf(w, "  artifact write failed: %v\n", aerr)
		}
	}
	return safe, nil
}

// writeChaosArtifacts persists the replay fingerprint (always) and the
// flight-recorder dump (on failure) under cfg.OutDir.
func writeChaosArtifacts(c ChaosConfig, sys *System, sched *chaos.Schedule, res *RunResult, safe bool) error {
	if err := os.MkdirAll(c.OutDir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-%s-seed%d", c.Scenario, protocolSlug(c.Protocol), c.Seed)

	var b strings.Builder
	b.WriteString(sched.String())
	fmt.Fprintf(&b, "protocol=%s net-seed=%d safe=%v\n", c.Protocol, res.Seed, safe)
	if res.Chaos != nil {
		for _, v := range res.Chaos.Check.Violations {
			fmt.Fprintf(&b, "violation: %s\n", v)
		}
	}
	if err := os.WriteFile(filepath.Join(c.OutDir, base+".schedule.txt"), []byte(b.String()), 0o644); err != nil {
		return err
	}
	if safe {
		return nil
	}
	f, err := os.Create(filepath.Join(c.OutDir, base+".trace.jsonl"))
	if err != nil {
		return err
	}
	defer f.Close()
	for i, reg := range sys.Metrics {
		if reg == nil {
			continue
		}
		if err := reg.Recorder().WriteJSONLines(f, fmt.Sprintf("node=%d", i)); err != nil {
			return err
		}
	}
	return nil
}

// protocolSlug flattens a protocol name into a file-name-safe token.
func protocolSlug(p Protocol) string {
	return strings.ToLower(strings.ReplaceAll(string(p), "-", ""))
}

// ChaosProtocol resolves a CLI protocol alias (neobft, pbft, minbft,
// zyzzyva, hotstuff, or any canonical Protocol name) to the protocol it
// names.
func ChaosProtocol(name string) (Protocol, error) {
	spec, err := protocol.Lookup(name)
	if err != nil {
		return "", err
	}
	return Protocol(spec.Name), nil
}
