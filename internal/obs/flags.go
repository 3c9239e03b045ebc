package obs

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Flags is the shared observability flag block every CLI grows:
//
//	-progress <dur>   periodic progress lines on stderr
//	-report <file>    machine-readable JSON run report on exit
//	-trace <file>     Chrome trace_event timeline on exit
//	-pprof <addr>     live net/http/pprof server
//
// Register with AddFlags, then hand the tool's work to Run after flag
// parsing. One helper wires every tool identically, so a stuck run is
// diagnosable the same way everywhere.
type Flags struct {
	Progress time.Duration
	Report   string
	Trace    string
	PProf    string
}

// AddFlags registers the observability flags on fs.
func AddFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.DurationVar(&f.Progress, "progress", 0, "print a progress line to stderr at this interval (0 = off)")
	fs.StringVar(&f.Report, "report", "", "write a JSON run report to this file on exit")
	fs.StringVar(&f.Trace, "trace", "", "write a Chrome trace_event timeline to this file on exit")
	fs.StringVar(&f.PProf, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	return f
}

// Run runs body between the start and the close of the session the
// flags ask for, and returns body's exit code. body's recorder is nil
// when no flag asked for observation, so producers skip all event
// work. A session that cannot start (a bad -pprof address) is a usage
// error: Run prints it after "tool: " on stderr and returns 2 without
// running body. A report or trace that cannot be written is printed
// the same way and turns an exit code of 0 into 1.
func (f *Flags) Run(tool string, args []string, stderr io.Writer, body func(Recorder) int) int {
	s, err := f.start(tool, args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, tool+":", err)
		return 2
	}
	code := body(s.rec)
	if err := s.close(code); err != nil {
		fmt.Fprintln(stderr, tool+":", err)
		if code == 0 {
			code = 1
		}
	}
	return code
}

// session is the assembled recorder stack for one CLI invocation.
type session struct {
	rec Recorder

	flags    *Flags
	progress *Progress
	report   *ReportCollector
	spans    *SpanCollector
	pprofLn  net.Listener
}

// start builds the recorders the flags ask for and, with -pprof,
// starts the profiling server. A bad -pprof address is an immediate
// error (a silently dead profiler would defeat the point).
func (f *Flags) start(tool string, args []string, stderr io.Writer) (*session, error) {
	s := &session{flags: f}
	var recs []Recorder
	if f.Progress > 0 {
		s.progress = NewProgress(stderr, f.Progress)
		recs = append(recs, s.progress)
	}
	if f.Report != "" {
		s.report = NewReportCollector(tool, args)
		recs = append(recs, s.report)
	}
	if f.Trace != "" {
		s.spans = NewSpanCollector()
		recs = append(recs, s.spans)
	}
	if f.PProf != "" {
		ln, err := net.Listen("tcp", f.PProf)
		if err != nil {
			return nil, fmt.Errorf("obs: -pprof %s: %w", f.PProf, err)
		}
		s.pprofLn = ln
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		srv := &http.Server{Handler: mux}
		go srv.Serve(ln) //nolint:errcheck // exits with the process
		fmt.Fprintf(stderr, "%s: pprof serving on http://%s/debug/pprof/\n", tool, ln.Addr())
	}
	s.rec = Multi(recs...)
	return s, nil
}

// close flushes the session: stops the progress loop, writes the
// report and trace files (stamped with exitCode), and shuts the pprof
// listener. It returns the first write error.
func (s *session) close(exitCode int) error {
	var firstErr error
	if s.progress != nil {
		s.progress.Close()
	}
	if s.report != nil {
		if err := s.report.Finish(exitCode).WriteFile(s.flags.Report); err != nil {
			firstErr = err
		}
	}
	if s.spans != nil {
		if err := s.spans.WriteFile(s.flags.Trace); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if s.pprofLn != nil {
		s.pprofLn.Close()
	}
	return firstErr
}
