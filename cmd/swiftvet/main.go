// Command swiftvet runs the project's static analyzers (internal/lint)
// over the named packages — the repository-specific companion to go vet,
// enforcing the invariants stock tooling cannot know about: simulator
// determinism (direct and transitive, via the whole-program call graph),
// lock discipline and global lock ordering, hot-path allocation budgets,
// error discipline, enum-switch exhaustiveness, and batch kernel
// equivalence with the reference oracle.
//
// Usage:
//
//	go run ./cmd/swiftvet [-json] [-why] [-analyzers a,b] [-changed files] [packages...]
//
// Packages default to ./... . Exit status is 0 when clean, 1 when any
// finding survives suppression, 2 on load/usage errors. Note that a
// narrow explicit pattern parses only the named packages' bodies, so
// interprocedural chains through unlisted packages are invisible; run
// ./... (as CI does) for authoritative whole-program results. With -json the
// findings stream to stdout as a single JSON array of
// {analyzer, file, line, col, message, why} objects for tooling. With
// -why each interprocedural finding is followed by its indented
// call-chain witness, one frame per line, ending at the terminal fact.
//
// -changed takes a comma-separated changed-file list (e.g. from
// `git diff --name-only`) and narrows reporting to those files' packages
// plus their reverse-dependency closure; the whole program is still
// loaded, because the interprocedural summaries need the full call
// graph. When the list cannot be mapped onto the loaded graph (go.mod
// changed, unknown file) swiftvet falls back to a full-tree run and says
// so on stderr.
//
// Findings are silenced only by an inline
//
//	//lint:allow <analyzer> <reason>
//
// comment (reason mandatory) on the offending line, the line above, or
// the first line of the offending multi-line statement; see DESIGN.md's
// "Static analysis" section for the analyzer catalogue.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"swift/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	why := flag.Bool("why", false, "print the call-chain witness under each interprocedural finding")
	names := flag.String("analyzers", "", "comma-separated analyzer subset (default: all)")
	changed := flag.String("changed", "", "comma-separated changed-file list; analyze only affected packages")
	list := flag.Bool("list", false, "print the analyzer catalogue and exit")
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}
	analyzers, err := lint.ByName(*names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "swiftvet:", err)
		os.Exit(2)
	}
	patterns := flag.Args()
	if *changed != "" && len(patterns) == 0 {
		// Incremental mode narrows reporting, but the summaries need the
		// whole module loaded regardless of the default pattern.
		patterns = []string{"./..."}
	}
	pkgs, fset, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "swiftvet:", err)
		os.Exit(2)
	}
	cfg := lint.DefaultConfig()
	if len(pkgs) > 0 && pkgs[0].Module != "" {
		cfg = lint.ConfigForModule(pkgs[0].Module)
	}
	var only map[string]bool
	if *changed != "" {
		files := strings.Split(*changed, ",")
		var stale string
		only, stale = lint.Affected(pkgs, files)
		if stale != "" {
			fmt.Fprintf(os.Stderr, "swiftvet: -changed: %s; analyzing the full tree\n", stale)
			only = nil
		} else {
			fmt.Fprintf(os.Stderr, "swiftvet: -changed: analyzing %d of %d packages\n", len(only), len(pkgs))
		}
	}
	findings := lint.RunPackages(fset, pkgs, cfg, analyzers, only)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []lint.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "swiftvet:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
			if *why {
				for _, frame := range f.Why {
					fmt.Printf("\t%s\n", frame)
				}
			}
		}
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "swiftvet: %d finding(s)\n", len(findings))
		}
		os.Exit(1)
	}
}
