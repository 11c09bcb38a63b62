package protocol

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"neobft/internal/configsvc"
	"neobft/internal/metrics"
	"neobft/internal/replication"
	"neobft/internal/sequencer"
	"neobft/internal/simnet"
	"neobft/internal/transport"
)

var updateSeries = flag.Bool("update-series", false, "rewrite testdata/series/*.txt from the current code")

// seriesFile is where one system's pinned series names live.
func seriesFile(name string) string {
	return filepath.Join("testdata", "series", strings.ToLower(name)+".txt")
}

// TestMetricSeriesPinned boots every system of the spec table on simnet
// through Host, runs a few operations, and compares the sorted series
// names of every replica registry with one checked-in list: the benchmark's
// layer rows, the metrics endpoint and the docs read these names, so a
// rename or a lost series must be deliberate (go test -update-series). It
// also checks that proto_commits_total counts exactly the operations each
// replica executed.
func TestMetricSeriesPinned(t *testing.T) {
	for _, spec := range specs {
		t.Run(spec.Name, func(t *testing.T) {
			regs, hosts := bootForSeries(t, spec, 4)
			path := seriesFile(spec.Name)
			for i, reg := range regs {
				commitsEqualExecuted(t, i, reg, hosts[i])
				var names []string
				for _, s := range reg.Snapshot() {
					names = append(names, s.Name)
				}
				slices.Sort(names)
				got := strings.Join(names, "\n") + "\n"
				if *updateSeries {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (run go test -run TestMetricSeriesPinned -update-series)", err)
				}
				if got != string(want) {
					t.Fatalf("replica %d: series names changed:\n%s", i, lineDiff(string(want), got))
				}
			}
		})
	}
}

// bootForSeries boots spec's fleet with one registry per replica, runs
// ops closed-loop operations and returns the registries and hosts.
func bootForSeries(t *testing.T, spec *Spec, ops int) ([]*metrics.Registry, []*Host) {
	t.Helper()
	cl := spec.Cluster(0, Params{})
	net := simnet.New(simnet.Options{Seed: 1})
	fab := simnet.Fabric{Network: net}
	t.Cleanup(func() { _ = fab.Close() })
	if spec.Sequencer() {
		cl.Svc = configsvc.New(spec.Variant, []byte(AOMMaster))
		id := transport.NodeID(1000)
		sw := sequencer.New(net.Join(id), sequencer.Options{Variant: spec.Variant, PKSeed: []byte{1}})
		cl.Svc.RegisterSwitch(configsvc.SwitchHandle{ID: id, SW: sw})
		if _, err := cl.Svc.CreateGroup(Group, cl.Members); err != nil {
			t.Fatal(err)
		}
	}
	regs := make([]*metrics.Registry, cl.N)
	hosts := make([]*Host, cl.N)
	for i := range hosts {
		regs[i] = metrics.NewRegistry()
		hosts[i] = NewHost(HostConfig{
			Cluster: cl,
			Index:   i,
			Fabric:  fab,
			Metrics: regs[i],
			App:     func() replication.App { return replication.EchoApp{} },
		})
		if err := hosts[i].Boot(false); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = hosts[i].Kill() })
	}
	client, err := cl.NewClient(net.Join(transport.NodeID(100)), replication.Tuning{Timeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ops; i++ {
		if _, err := client.Invoke([]byte(fmt.Sprintf("op-%d", i)), 10*time.Second); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	return regs, hosts
}

// commitsEqualExecuted waits until replica i's proto_commits_total equals
// the client operations its host reports executed. Replies leave after
// execution, so a lagging replica may still be catching up when the last
// operation returns.
func commitsEqualExecuted(t *testing.T, i int, reg *metrics.Registry, h *Host) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		commits, found := -1.0, false
		for _, s := range reg.Snapshot() {
			if s.Name == "proto_commits_total" {
				commits, found = s.Value, true
			}
		}
		if !found {
			t.Fatalf("replica %d registers no proto_commits_total", i)
		}
		executed := h.Executed()
		if uint64(commits) == executed {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica %d: proto_commits_total %v, executed %d", i, commits, executed)
		}
		time.Sleep(time.Millisecond)
	}
}

// lineDiff lists the lines only one side has, prefixed - (want) or + (got).
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var out []string
	for _, l := range w {
		if !slices.Contains(g, l) {
			out = append(out, "- "+l)
		}
	}
	for _, l := range g {
		if !slices.Contains(w, l) {
			out = append(out, "+ "+l)
		}
	}
	return strings.Join(out, "\n")
}
