// Command webbench regenerates the paper's Web-server figures (3-13) on
// the simulated testbed — plus the caching reverse-proxy and fcgi
// worker-pool scenarios — and prints the tables they plot.
//
// Usage:
//
//	webbench -fig 3          # one figure
//	webbench -fig 13 -quick  # the converted-application suite (wc, grep, permute, gcc)
//	webbench -fig proxy      # the reverse-proxy tier comparison
//	webbench -fig fcgi       # the fcgi worker-pool scaling study
//	webbench -fig fcginet    # fcgi worker placement: the LAN-tax study
//	webbench -fig chaos      # fault injection: loss × kills × replay
//	webbench -fig qos        # multi-tenant isolation under a heavy hitter
//	webbench -fig all -quick # every figure, reduced point set
//	webbench -fig proxy -trace t.json  # + Chrome trace-event export
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"iolite/internal/experiments"
	"iolite/internal/obs"
)

var figures = map[string]func(experiments.Options) *experiments.Table{
	"3":       experiments.Fig3,
	"4":       experiments.Fig4,
	"5":       experiments.Fig5,
	"6":       experiments.Fig6,
	"7":       experiments.Fig7,
	"8":       experiments.Fig8,
	"9":       experiments.Fig9,
	"10":      experiments.Fig10,
	"11":      experiments.Fig11,
	"12":      experiments.Fig12,
	"13":      experiments.Fig13,
	"proxy":   experiments.FigProxy,
	"fcgi":    experiments.FigFCGI,
	"fcginet": experiments.FigFCGINet,
	"chaos":   experiments.FigChaos,
	"qos":     experiments.FigQoS,
}

var figureOrder = []string{"3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "proxy", "fcgi", "fcginet", "chaos", "qos"}

func main() {
	fig := flag.String("fig", "all", "figure number (3-13), 'proxy', 'fcgi', 'fcginet', 'chaos', 'qos', or 'all'")
	quick := flag.Bool("quick", false, "reduced point set and shorter windows")
	verbose := flag.Bool("v", false, "progress output")
	trace := flag.String("trace", "", "write a Chrome trace-event JSON file of the run's request spans")
	flag.Parse()

	opt := experiments.Options{Quick: *quick}
	if *verbose {
		opt.Progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}
	if *trace != "" {
		opt.Trace = obs.New()
	}

	names := figureOrder
	if *fig != "all" {
		if _, ok := figures[*fig]; !ok {
			fmt.Fprintf(os.Stderr, "webbench: unknown figure %q (want 3-13, proxy, fcgi, fcginet, chaos, qos, or all)\n", *fig)
			os.Exit(2)
		}
		names = []string{*fig}
	}
	for _, name := range names {
		start := time.Now()
		tbl := figures[name](opt)
		fmt.Println(tbl.Format())
		fmt.Printf("(figure %s regenerated in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "webbench: %v\n", err)
			os.Exit(1)
		}
		if err := opt.Trace.WriteTrace(f); err != nil {
			fmt.Fprintf(os.Stderr, "webbench: writing trace: %v\n", err)
			os.Exit(1)
		}
		f.Close()
		for _, kind := range opt.Trace.Kinds() {
			fmt.Printf("trace %s: p50 %v p99 %v (%d spans retained)\n",
				kind, opt.Trace.Quantile(kind, 0.50), opt.Trace.Quantile(kind, 0.99),
				len(opt.Trace.Finished()))
		}
		fmt.Printf("trace written to %s\n", *trace)
	}
}
