// Command sweepd is the simulation-sweep service: a coordinator that
// accepts matrix jobs over HTTP and shards their cells across
// pull-based workers, deduplicating results through a
// content-addressed on-disk cache (internal/resultcache), plus the
// worker and client sides of the same protocol.
//
// Usage:
//
//	sweepd serve  -addr :8080 -cache /var/cache/sweepd     # coordinator
//	sweepd work   -server http://coordinator:8080          # worker: a cell per core (GOMAXPROCS)
//	sweepd submit -server ... -golden -out reports/        # submit + wait + fetch
//	sweepd submit -server ... -spec sweep.json -summary    # custom matrix
//	sweepd check  -server ... -out checks/                 # model checking, a cell per slot
//	sweepd check  -local -out checks/                      # in-process reference check
//	sweepd status -server ... [-job j1]                    # job + cache stats
//	sweepd health -server ...                              # liveness probe
//
// Exit codes follow the repository convention (internal/cli): 2 for
// usage errors, 3 when a submitted job had a failed cell (with one
// machine-readable JSON line on stderr), 1 for anything else.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"denovogpu"
	"denovogpu/internal/cli"
	"denovogpu/internal/resultcache"
	"denovogpu/internal/sweepd"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, "usage: sweepd <serve|work|submit|check|status|health> [flags]")
	fmt.Fprintln(stderr, "run 'sweepd <subcommand> -h' for subcommand flags")
	return cli.ExitUsage
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		return usage(stderr)
	}
	switch args[0] {
	case "serve":
		return runServe(args[1:], stdout, stderr)
	case "work":
		return runWork(args[1:], stdout, stderr)
	case "submit":
		return runSubmit(args[1:], stdout, stderr)
	case "check":
		return runCheckCmd(args[1:], stdout, stderr)
	case "status":
		return runStatus(args[1:], stdout, stderr)
	case "health":
		return runHealth(args[1:], stdout, stderr)
	case "-h", "-help", "--help":
		usage(stderr)
		return 0
	default:
		fmt.Fprintf(stderr, "sweepd: unknown subcommand %q\n", args[0])
		return usage(stderr)
	}
}

// signalCtx is a seam: tests replace it to avoid installing handlers.
var signalCtx = func() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// serveListen is a seam: tests capture the bound address.
var serveListen = net.Listen

func runServe(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweepd serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", ":8080", "listen address")
		cacheDir = fs.String("cache", "", "result cache directory (empty = cache disabled)")
		cacheMB  = fs.Int64("cache-max-mb", 1024, "result cache size cap in MiB (0 = unbounded)")
		leaseTTL = fs.Duration("lease-ttl", 60*time.Second, "worker lease TTL; an unheartbeated cell requeues after this")
		reap     = fs.Duration("reap-interval", 5*time.Second, "how often expired leases are requeued")
	)
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}

	var cache *resultcache.Cache
	if *cacheDir != "" {
		var err error
		cache, err = resultcache.Open(*cacheDir, *cacheMB<<20)
		if err != nil {
			fmt.Fprintf(stderr, "sweepd: opening cache: %v\n", err)
			return cli.ExitFailure
		}
	}
	coord := sweepd.New(sweepd.Options{Cache: cache, LeaseTTL: *leaseTTL})

	ctx, cancel := signalCtx()
	defer cancel()
	stop := make(chan struct{})
	defer close(stop)
	coord.StartReaper(*reap, stop)

	ln, err := serveListen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "sweepd: listen: %v\n", err)
		return cli.ExitFailure
	}
	srv := &http.Server{Handler: coord.Handler()}
	fmt.Fprintf(stdout, "sweepd: serving on %s (version %s, cache %q)\n", ln.Addr(), coord.Version(), *cacheDir)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case <-ctx.Done():
		shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer shutCancel()
		_ = srv.Shutdown(shutCtx)
		fmt.Fprintln(stdout, "sweepd: shut down")
		return 0
	case err := <-errc:
		fmt.Fprintf(stderr, "sweepd: serve: %v\n", err)
		return cli.ExitFailure
	}
}

func runWork(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweepd work", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		server = fs.String("server", "http://localhost:8080", "coordinator base URL")
		name   = fs.String("name", "", "worker name shown in job events, shared by its GOMAXPROCS slots (default host:pid)")
		poll   = fs.Duration("poll", 200*time.Millisecond, "a slot's idle sleep between lease attempts")
	)
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	if *name == "" {
		host, _ := os.Hostname()
		*name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	ctx, cancel := signalCtx()
	defer cancel()
	fmt.Fprintf(stdout, "sweepd: worker %s pulling from %s on %d slots\n", *name, *server, runtime.GOMAXPROCS(0))
	w := &sweepd.Worker{Server: *server, Name: *name, IdlePoll: *poll}
	if err := w.Run(ctx); err != nil {
		fmt.Fprintf(stderr, "sweepd: %v\n", err)
		return cli.ExitFailure
	}
	fmt.Fprintf(stdout, "sweepd: worker %s stopped\n", *name)
	return 0
}

func runSubmit(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweepd submit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		server    = fs.String("server", "http://localhost:8080", "coordinator base URL")
		golden    = fs.Bool("golden", false, "submit the pinned golden matrix (the 44 cells committed under internal/machine/testdata/golden)")
		specPath  = fs.String("spec", "", "matrix spec JSON file ('-' = stdin)")
		keepGoing = fs.Bool("keep-going", false, "run every cell even after failures")
		outDir    = fs.String("out", "", "write each finished cell's canonical report into this directory")
		summary   = fs.Bool("summary", false, "print the final job status as JSON on stdout (progress goes to stderr)")
		quiet     = fs.Bool("quiet", false, "suppress per-cell progress lines")
	)
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	var spec denovogpu.MatrixSpec
	switch {
	case *golden && *specPath != "":
		fmt.Fprintln(stderr, "sweepd: -golden and -spec are mutually exclusive")
		fs.Usage()
		return cli.ExitUsage
	case *golden:
		spec.Cells = denovogpu.PinnedCells()
	case *specPath != "":
		var data []byte
		var err error
		if *specPath == "-" {
			data, err = io.ReadAll(os.Stdin)
		} else {
			data, err = os.ReadFile(*specPath)
		}
		if err != nil {
			fmt.Fprintf(stderr, "sweepd: reading spec: %v\n", err)
			return cli.ExitFailure
		}
		if err := json.Unmarshal(data, &spec); err != nil {
			fmt.Fprintf(stderr, "sweepd: parsing spec: %v\n", err)
			return cli.ExitFailure
		}
	default:
		fmt.Fprintln(stderr, "sweepd: need -golden or -spec")
		fs.Usage()
		return cli.ExitUsage
	}
	if *keepGoing {
		spec.KeepGoing = true
	}

	// Progress goes to stderr when stdout carries the JSON summary.
	progress := stdout
	if *summary {
		progress = stderr
	}

	ctx, cancel := signalCtx()
	defer cancel()
	client := &sweepd.Client{Base: *server}
	sr, err := client.Submit(ctx, spec)
	if err != nil {
		fmt.Fprintf(stderr, "sweepd: submit: %v\n", err)
		return cli.ExitFailure
	}
	if sr.Deduped {
		fmt.Fprintf(progress, "sweepd: joined already-running job %s\n", sr.Status.ID)
	} else {
		fmt.Fprintf(progress, "sweepd: submitted job %s (%d cells)\n", sr.Status.ID, sr.Status.Cells)
	}

	err = client.StreamEvents(ctx, sr.Status.ID, func(ev sweepd.Event) error {
		if *quiet || !sweepd.CellState(ev.State).Terminal() {
			return nil
		}
		switch ev.State {
		case sweepd.StateDone:
			how := fmt.Sprintf("worker %s, %.0f ms", ev.Worker, ev.WallMS)
			if ev.CacheHit {
				how = "cache hit"
			}
			fmt.Fprintf(progress, "  %-8s %-6s done (%s)\n", ev.Workload, ev.Config, how)
		case sweepd.StateFailed:
			fmt.Fprintf(progress, "  %-8s %-6s FAILED: %s\n", ev.Workload, ev.Config, ev.Err)
		case sweepd.StateSkipped:
			fmt.Fprintf(progress, "  %-8s %-6s skipped\n", ev.Workload, ev.Config)
		}
		return nil
	})
	if err != nil {
		fmt.Fprintf(stderr, "sweepd: streaming events: %v\n", err)
		return cli.ExitFailure
	}
	status, err := client.Wait(ctx, sr.Status.ID, 100*time.Millisecond)
	if err != nil {
		fmt.Fprintf(stderr, "sweepd: %v\n", err)
		return cli.ExitFailure
	}

	if *outDir != "" {
		if err := writeReports(ctx, client, status, spec, *outDir); err != nil {
			fmt.Fprintf(stderr, "sweepd: writing reports: %v\n", err)
			return cli.ExitFailure
		}
		fmt.Fprintf(progress, "sweepd: wrote %d reports to %s\n", status.Done, *outDir)
	}
	if *summary {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(status); err != nil {
			fmt.Fprintf(stderr, "sweepd: %v\n", err)
			return cli.ExitFailure
		}
	} else {
		fmt.Fprintf(progress, "sweepd: job %s %s: %d done (%d cache hits), %d failed, %d skipped in %.0f ms\n",
			status.ID, status.State, status.Done, status.CacheHits, status.Failed, status.Skipped, status.WallMS)
	}
	if status.State != "done" {
		var failed denovogpu.CellSpec
		if specs := spec.CellSpecs(); status.ErrorCell >= 0 && status.ErrorCell < len(specs) {
			failed = specs[status.ErrorCell]
		}
		return emitCellFailure(stderr, failed, status.ErrorCell, status.Error)
	}
	return 0
}

// emitCellFailure writes the machine-readable failure line for a cell,
// named by its Label.
func emitCellFailure(stderr io.Writer, s denovogpu.CellSpec, index int, msg string) int {
	workload, config := s.Label()
	return cli.EmitCellFailure(stderr, workload, config, index, msg)
}

// writeReports fetches every done cell's canonical report and writes it
// under dir as reportFileName, so `diff -r` of a simulation sweep
// against internal/machine/testdata/golden is the end-to-end
// correctness check.
func writeReports(ctx context.Context, client *sweepd.Client, status sweepd.JobStatus, spec denovogpu.MatrixSpec, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	specs := spec.CellSpecs()
	for i, s := range specs {
		data, err := client.CellReport(ctx, status.ID, i)
		if err != nil {
			if status.Done == len(specs) {
				return err
			}
			continue // failed/skipped cells have no report
		}
		if err := os.WriteFile(filepath.Join(dir, reportFileName(s)), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// labelFileChars maps a Label's workload to file-name-friendly text:
// "check:MP+preload" becomes "check_MP-preload".
var labelFileChars = strings.NewReplacer(":", "_", "+", "-")

// reportFileName is the one file-name rule for a cell's report, used by
// both `submit -out` and `check -out`: its Label through ReportFileName,
// plus "_seedN" for a seeded cell. A simulation cell gets its
// golden-harness name ("LAVA_GD.json") and a check cell
// "check_MP_DD.json", so no two cells of a job collide.
func reportFileName(s denovogpu.CellSpec) string {
	workload, config := s.Label()
	name := labelFileChars.Replace(workload)
	if s.Seed != 0 {
		name = fmt.Sprintf("%s_seed%d", name, s.Seed)
	}
	return denovogpu.ReportFileName(name, config)
}

func runStatus(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweepd status", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		server = fs.String("server", "http://localhost:8080", "coordinator base URL")
		jobID  = fs.String("job", "", "one job's status (default: all jobs)")
	)
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	ctx, cancel := signalCtx()
	defer cancel()
	client := &sweepd.Client{Base: *server}
	out := struct {
		Jobs  []sweepd.JobStatus `json:"jobs"`
		Cache resultcache.Stats  `json:"cache"`
	}{}
	if *jobID != "" {
		status, err := client.Job(ctx, *jobID)
		if err != nil {
			fmt.Fprintf(stderr, "sweepd: %v\n", err)
			return cli.ExitFailure
		}
		out.Jobs = []sweepd.JobStatus{status}
	} else {
		var jobs []sweepd.JobStatus
		if err := getJSON(ctx, client, "/api/v1/jobs", &jobs); err != nil {
			fmt.Fprintf(stderr, "sweepd: %v\n", err)
			return cli.ExitFailure
		}
		out.Jobs = jobs
	}
	st, err := client.CacheStats(ctx)
	if err != nil {
		fmt.Fprintf(stderr, "sweepd: %v\n", err)
		return cli.ExitFailure
	}
	out.Cache = st
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	_ = enc.Encode(out)
	return 0
}

// getJSON is the one client call the Client type doesn't wrap (the
// all-jobs listing).
func getJSON(ctx context.Context, c *sweepd.Client, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+path, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func runHealth(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweepd health", flag.ContinueOnError)
	fs.SetOutput(stderr)
	server := fs.String("server", "http://localhost:8080", "coordinator base URL")
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(*server + "/healthz")
	if err != nil {
		fmt.Fprintf(stderr, "sweepd: %v\n", err)
		return cli.ExitFailure
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(stderr, "sweepd: health: %s\n", resp.Status)
		return cli.ExitFailure
	}
	fmt.Fprintln(stdout, "ok")
	return 0
}
