package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// host is the fingerprint a report carries so that two reports are only
// compared knowingly across machines.
type host struct {
	Commit     string `json:"commit"`
	GoMaxProcs int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	FileSystem string `json:"data_dir_fs"`
	Date       string `json:"date"`
}

// report is what one invocation measured; -compare reads two of them.
type report struct {
	Host     host               `json:"host"`
	Seed     int64              `json:"seed"`
	Trace    bool               `json:"trace"`
	RefRates map[string]float64 `json:"ref_rates_req_per_s"`
	PlanS    map[string]float64 `json:"phase_seconds"`
	Runs     []*result          `json:"runs"`
}

func newReport(cfg *config, commit string) *report {
	if commit == "" {
		commit = gitCommit()
	}
	rates := map[string]float64{}
	for _, w := range workloads {
		rates[w.name] = w.refRate
	}
	p := cfg.plan
	return &report{
		Host: host{
			Commit: commit, GoMaxProcs: cfg.conns, CPU: cpuModel(), GoVersion: runtime.Version(),
			FileSystem: fsName(cfg.dir), Date: time.Now().UTC().Format(time.RFC3339),
		},
		Seed: cfg.seed, Trace: cfg.trace, RefRates: rates,
		PlanS: map[string]float64{
			"setups": float64(p.setups), "settle": p.settle.Seconds(), "warm": p.warm.Seconds(), "capacity": p.capacity.Seconds(),
			"ref": p.ref.Seconds(), "sub": p.sub.Seconds(), "rung": p.rung.Seconds(),
			"traced": p.traced.Seconds(), "peel": p.peel.Seconds(), "null": p.null.Seconds(),
			"degraded": p.degraded.Seconds(),
		},
	}
}

func (r *report) print() {
	h := r.Host
	fmt.Printf("bench: commit %s, GOMAXPROCS %d, %s, %s, data dir on %s, %s, seed %d\n",
		h.Commit, h.GoMaxProcs, h.CPU, h.GoVersion, h.FileSystem, h.Date, r.Seed)
	fmt.Printf("bench: ref rates (req/s): %s %.0f, %s %.0f, %s %.0f; %s is a closed loop\n",
		fi, r.RefRates[fi], fr, r.RefRates[fr], rm, r.RefRates[rm], cv)
}

func (r *report) write(path string) error {
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// gitCommit asks git for the checkout's commit; a checkout that is not a
// repository, as the driver's is not, reads "unknown".
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// fsName names the file system the data directory is on.
func fsName(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "unknown"
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("fs-0x%x", uint32(st.Type))
}
