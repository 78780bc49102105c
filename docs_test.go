package repro

// The docs cite three things that can go stale without a test noticing:
// benchmark rows of the committed ledgers, by name, sections of
// DESIGN.md and EXPERIMENTS.md, by heading, and commands, by their cmd/
// directory. These tests resolve all three.

import (
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// doc is one text the citations are read from: a Markdown file, or the
// comments of one Go file.
type doc struct {
	path string // repository-relative; decides which checks apply
	text string
}

var (
	benchCite   = regexp.MustCompile("`(Benchmark[^`]*)`")
	sectionCite = regexp.MustCompile(`\b(DESIGN|EXPERIMENTS)\.md,? "([^"]+)"`)
	commandCite = regexp.MustCompile(`\bcmd/([A-Za-z0-9_-]+)`)
	gomaxprocs  = regexp.MustCompile(`-\d+$`)
)

// citationProblems lists every backticked benchmark name in README.md,
// DESIGN.md and EXPERIMENTS.md that is neither a row of rows nor the
// prefix of a row family, and every quoted section citation after
// DESIGN.md or EXPERIMENTS.md, in any doc, that names no heading of that
// file. A heading is named by its full text or by the text before its
// subtitle (": ..." or " (...").
func citationProblems(docs []doc, rows []string) []string {
	headings := map[string][]string{}
	for _, d := range docs {
		if d.path == "DESIGN.md" || d.path == "EXPERIMENTS.md" {
			headings[d.path] = markdownHeadings(d.text)
		}
	}
	var problems []string
	for _, d := range docs {
		text := strings.Join(strings.Fields(d.text), " ")
		switch d.path {
		case "README.md", "DESIGN.md", "EXPERIMENTS.md":
			for _, m := range benchCite.FindAllStringSubmatch(text, -1) {
				if !isRow(m[1], rows) {
					problems = append(problems, fmt.Sprintf("%s: `%s` is no row of a committed BENCH_*.json", d.path, m[1]))
				}
			}
		}
		for _, m := range sectionCite.FindAllStringSubmatch(text, -1) {
			file := m[1] + ".md"
			if !namesHeading(m[2], headings[file]) {
				problems = append(problems, fmt.Sprintf("%s: %s %q names no heading", d.path, file, m[2]))
			}
		}
	}
	return problems
}

// commandProblems lists every cmd/<name> (./cmd/<name> included) that
// README.md, DESIGN.md, EXPERIMENTS.md or the Makefile names and that is
// none of cmds. ROADMAP.md and CHANGES.md are history: they may name a
// command that is gone.
func commandProblems(docs []doc, cmds []string) []string {
	var problems []string
	for _, d := range docs {
		switch d.path {
		case "README.md", "DESIGN.md", "EXPERIMENTS.md", "Makefile":
			for _, m := range commandCite.FindAllStringSubmatch(d.text, -1) {
				if !slices.Contains(cmds, m[1]) {
					problems = append(problems, fmt.Sprintf("%s: cmd/%s is no command", d.path, m[1]))
				}
			}
		}
	}
	return problems
}

// isRow matches a row with and without its GOMAXPROCS suffix, which a
// single-CPU run does not print.
func isRow(name string, rows []string) bool {
	for _, row := range rows {
		for _, r := range []string{row, gomaxprocs.ReplaceAllString(row, "")} {
			if r == name || strings.HasPrefix(r, name+"/") {
				return true
			}
		}
	}
	return false
}

func namesHeading(cite string, headings []string) bool {
	for _, h := range headings {
		if h == cite || strings.HasPrefix(h, cite+": ") || strings.HasPrefix(h, cite+" (") {
			return true
		}
	}
	return false
}

// markdownHeadings returns the text of every ATX heading outside fenced
// code blocks.
func markdownHeadings(text string) []string {
	var out []string
	fenced := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "```") {
			fenced = !fenced
			continue
		}
		if fenced || !strings.HasPrefix(line, "#") {
			continue
		}
		if h := strings.TrimLeft(line, "#"); strings.HasPrefix(h, " ") {
			out = append(out, strings.TrimSpace(h))
		}
	}
	return out
}

// committedRows returns the benchmark names of every committed ledger's
// current section.
func committedRows(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no ledgers: %v", err)
	}
	var rows []string
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var ledger struct {
			Current struct {
				Benchmarks []struct{ Name string }
			}
		}
		if err := json.Unmarshal(raw, &ledger); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for _, b := range ledger.Current.Benchmarks {
			rows = append(rows, b.Name)
		}
	}
	return rows
}

// repositoryDocs reads the four Markdown files that cite, the Makefile
// and the comments of every Go file in the tree.
func repositoryDocs(t *testing.T) []doc {
	t.Helper()
	var docs []doc
	for _, name := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md", "Makefile"} {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, doc{name, string(raw)})
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != "." && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		var b strings.Builder
		for _, g := range f.Comments {
			b.WriteString(g.Text())
			b.WriteString("\n")
		}
		docs = append(docs, doc{path, b.String()})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return docs
}

func TestDocsCitationsResolve(t *testing.T) {
	rows := committedRows(t)
	stale := []doc{
		{"EXPERIMENTS.md", "## The simulator: queue\n\n`BenchmarkRearm` and\n`BenchmarkTimerReschedule`; see DESIGN.md \"The event\nqueue\" and DESIGN.md \"Missing\".\n"},
		{"DESIGN.md", "# DESIGN\n\n## The event queue (sim)\n\n```sh\n# Missing\n```\n"},
		{"internal/sim/engine.go", "See EXPERIMENTS.md \"The simulator\" for the census.\n"},
	}
	cases := []struct {
		name string
		docs []doc
		want []string
	}{
		{"repository", repositoryDocs(t), nil},
		{"stale", stale, []string{
			"EXPERIMENTS.md: `BenchmarkTimerReschedule` is no row",
			`EXPERIMENTS.md: DESIGN.md "Missing" names no heading`,
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := citationProblems(c.docs, rows)
			if len(got) != len(c.want) {
				t.Fatalf("%d problems, want %d:\n%s", len(got), len(c.want), strings.Join(got, "\n"))
			}
			for i, w := range c.want {
				if !strings.HasPrefix(got[i], w) {
					t.Errorf("problem %d = %q, want it to start with %q", i, got[i], w)
				}
			}
		})
	}
}

func TestDocsNameExistingCommands(t *testing.T) {
	entries, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	var cmds []string
	for _, e := range entries {
		if e.IsDir() {
			cmds = append(cmds, e.Name())
		}
	}
	stale := []doc{
		{"README.md", "go run ./cmd/asidisc -spans-in t.json\ngo run ./cmd/asigone t.json\n"},
		{"Makefile", "#   asibench, cmd/asigone and asichaos\n"},
		{"ROADMAP.md", "`cmd/asigone` folded into asidisc\n"},
	}
	cases := []struct {
		name string
		docs []doc
		want []string
	}{
		{"repository", repositoryDocs(t), nil},
		{"stale", stale, []string{
			"README.md: cmd/asigone is no command",
			"Makefile: cmd/asigone is no command",
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := commandProblems(c.docs, cmds); !slices.Equal(got, c.want) {
				t.Errorf("problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(c.want, "\n"))
			}
		})
	}
}
