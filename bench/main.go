// Command bench is the repository's benchmark: adaptserve end to end,
// as a real child process with -data-dir on the real filesystem, driven
// over loopback through both frontends, with every byte verified. See
// README.md in this directory for the workloads, the metrics and the
// noise rules.
//
//	bash bench/run.sh --workload small-write --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --seed 1                 # every workload in turn
//	bash bench/run.sh --workload nbd-mixed --seconds 20 --trace 1
//	bash bench/run.sh --agree 3
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"adapt/internal/segfile"
)

// runTimeout is the hard limit on one workload's run, inside the
// contract's 180 s.
const runTimeout = 170 * time.Second

// environment is where a run happens; it is recorded with the output.
type environment struct {
	benchDir  string
	workRoot  string
	serverBin string
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	workloadName := fs.String("workload", "", "workload to run (default: all of them)")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same op streams")
	seconds := fs.Int("seconds", 20, "length of the measured phase")
	trace := fs.Int("trace", 0, "1: the traced run that prints the per-layer metrics instead of the end-to-end ones")
	workDir := fs.String("work-dir", "", "root for data directories and build output (default: .work beside the bench sources)")
	agree := fs.Int("agree", 0, "run two alternating sets of this many passes and check they agree within the bounds")
	fs.Parse(os.Args[1:])
	if fs.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		fs.Usage()
		return 2
	}

	// Nothing of a failed run may poison the next: whatever way out is
	// taken, the child dies and the work directories go.
	defer func() {
		if r := recover(); r != nil {
			cleanupAll()
			panic(r)
		}
		cleanupAll()
	}()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanupAll()
		os.Exit(130)
	}()

	env, err := prepare(*workDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var todo []*spec
	if *workloadName == "" {
		for i := range specs {
			todo = append(todo, &specs[i])
		}
	} else if sp := findSpec(*workloadName); sp != nil {
		todo = []*spec{sp}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
		return 2
	}
	if *agree > 0 {
		return runAgree(env, todo, *seed, *seconds, *agree)
	}

	env.print(*seed, *seconds)
	all := map[string]map[string]metric{}
	for _, sp := range todo {
		out, err := runGuarded(func() (*runOutput, error) {
			if *trace == 1 {
				return runTraced(env, sp, *seed, *seconds)
			}
			return runE2E(env, sp, *seed, *seconds)
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.name, err)
			return 1
		}
		printHuman(sp, out)
		line, err := json.Marshal(out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(line))
		all[sp.name] = out.Metrics
	}
	if *trace == 1 && len(all) == len(specs) {
		warnAcross(all)
	}
	return 0
}

// runGuarded runs one workload under the hard timeout; on expiry the
// process cleans up and exits, because a wedged server cannot be trusted
// to unwind.
func runGuarded(fn func() (*runOutput, error)) (*runOutput, error) {
	watchdog := time.AfterFunc(runTimeout, func() {
		fmt.Fprintf(os.Stderr, "bench: run exceeded %v; killing the server and giving up\n", runTimeout)
		cleanupAll()
		os.Exit(3)
	})
	defer watchdog.Stop()
	return fn()
}

// prepare locates the bench sources, makes the work root and builds the
// server. None of it is timed.
func prepare(workDir string) (*environment, error) {
	env := &environment{}
	switch {
	case isBenchDir("bench"):
		env.benchDir = "bench"
	case isBenchDir("."):
		env.benchDir = "."
	default:
		return nil, fmt.Errorf("run from the repository root or from bench/: no bench/go.mod here")
	}
	env.workRoot = workDir
	if env.workRoot == "" {
		env.workRoot = filepath.Join(env.benchDir, ".work")
	}
	if err := os.MkdirAll(env.workRoot, 0o755); err != nil {
		return nil, err
	}
	var err error
	env.serverBin, err = buildServer(env.benchDir, filepath.Join(env.workRoot, "bin"))
	return env, err
}

// pidFile records the live child, so a later bench can refuse to start
// beside a survivor.
func (env *environment) pidFile() string { return filepath.Join(env.workRoot, "child.pid") }

func isBenchDir(dir string) bool {
	b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	return err == nil && strings.HasPrefix(string(b), "module adapt/bench\n")
}

// print records the host and the run's parameters ahead of the numbers.
func (env *environment) print(seed uint64, seconds int) {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	fmt.Printf("# host: nproc=%d GOMAXPROCS=%d %s kernel=%s work=%s fstype=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernel,
		env.workRoot, segfile.Probe(env.workRoot).FSType)
	fmt.Printf("# run: seed=%d seconds=%d volumes=%d user-blocks=%d shards=%d depth=%dx%d set-ups=%d\n",
		seed, seconds, volumes, userBlocks, shards, volumes, queueDepth, setupReps)
}

// printHuman prints every metric by name with its unit, one per line,
// ahead of the machine-readable last line.
func printHuman(sp *spec, out *runOutput) {
	fmt.Printf("# %s: attempted=%d failed=%d correct=%v\n", sp.name, out.Attempted, out.Failed, out.Correct)
	if out.note != "" {
		fmt.Printf("# %s: %s\n", sp.name, out.note)
	}
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := out.Metrics[n]
		fmt.Printf("#   %-36s %14.4f %s\n", n, m.Value, m.Unit)
	}
}
