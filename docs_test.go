package repro

import (
	"go/build"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The documents are checked against the tree: a name they cite must
// exist, a decision they cite must have its heading, and DESIGN.md
// stays short enough to find a rule in.

const designMaxLines = 1000

var (
	// A backticked code span that is a Go name: identifiers joined by
	// dots, with an optional () or a trailing * (a prefix glob).
	nameSpan = regexp.MustCompile("`([A-Za-z_][A-Za-z0-9_]*(?:\\.[A-Za-z_][A-Za-z0-9_]*)*)(\\(\\)|\\*)?`")
	word     = regexp.MustCompile(`[A-Za-z0-9_]+`)
	// A line break with the next line's indent and comment marker.
	lineBreak = regexp.MustCompile(`\n[ \t]*(?://|#)?[ \t]*`)
	citation  = regexp.MustCompile(`DESIGN(?:\.md)?,?\s+decisions?\s+(\d+(?:(?:,\s*|,?\s+and\s+)\d+)*)`)
	number    = regexp.MustCompile(`\d+`)
	heading   = regexp.MustCompile(`(?m)^## Decision (\d+)\b`)
	commitID  = regexp.MustCompile(`^[0-9a-f]{7,40}$`)
)

func readDoc(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// goFiles returns the module's .go files.
func goFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// stdPackageNames returns the last path element of every standard
// library package, the names a doc uses to qualify one (utf8, binary).
func stdPackageNames(t *testing.T) map[string]bool {
	t.Helper()
	root := filepath.Join(build.Default.GOROOT, "src")
	names := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		switch d.Name() {
		case "cmd", "internal", "vendor", "testdata":
			return filepath.SkipDir
		}
		names[d.Name()] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

func TestDocNamesExist(t *testing.T) {
	words := map[string]bool{}
	pkgs := map[string]bool{}
	sources := append(goFiles(t), ".github/workflows/ci.yml")
	for _, f := range sources {
		for _, w := range word.FindAllString(readDoc(t, f), -1) {
			words[w] = true
		}
		if strings.HasSuffix(f, ".go") {
			pkgs[filepath.Base(filepath.Dir(f))] = true
		}
	}
	std := stdPackageNames(t)
	var stale []string
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		seen := map[string]bool{}
		for _, m := range nameSpan.FindAllStringSubmatch(readDoc(t, doc), -1) {
			name, suffix := m[1], m[2]
			if seen[name+suffix] || commitID.MatchString(name) {
				continue
			}
			seen[name+suffix] = true
			segs := strings.Split(name, ".")
			if len(segs) > 1 && std[segs[0]] && !pkgs[segs[0]] {
				continue
			}
			last := segs[len(segs)-1]
			if suffix == "*" {
				if !anyHasPrefix(words, last) {
					stale = append(stale, doc+": `"+name+suffix+"`")
				}
				continue
			}
			if !words[last] {
				stale = append(stale, doc+": `"+name+suffix+"`")
			}
		}
	}
	if len(stale) > 0 {
		t.Errorf("%d backticked names occur in no .go file and not in ci.yml:\n%s",
			len(stale), strings.Join(stale, "\n"))
	}
}

func anyHasPrefix(words map[string]bool, prefix string) bool {
	for w := range words {
		if strings.HasPrefix(w, prefix) {
			return true
		}
	}
	return false
}

func TestDecisionCitationsResolve(t *testing.T) {
	headings := map[int]bool{}
	for _, m := range heading.FindAllStringSubmatch(readDoc(t, "DESIGN.md"), -1) {
		n, _ := strconv.Atoi(m[1])
		headings[n] = true
	}
	citing := append(goFiles(t), "README.md", "ROADMAP.md",
		".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md")
	var missing []string
	for _, f := range citing {
		text := lineBreak.ReplaceAllString(readDoc(t, f), " ")
		for _, m := range citation.FindAllStringSubmatch(text, -1) {
			for _, s := range number.FindAllString(m[1], -1) {
				n, _ := strconv.Atoi(s)
				if !headings[n] {
					missing = append(missing, f+": "+m[0])
				}
			}
		}
	}
	if len(missing) > 0 {
		t.Errorf("%d DESIGN citations name no \"## Decision N\" heading:\n%s",
			len(missing), strings.Join(missing, "\n"))
	}
}

func TestLayoutNamesEveryPackage(t *testing.T) {
	readme := readDoc(t, "README.md")
	i := strings.Index(readme, "\n## Layout\n")
	if i < 0 {
		t.Fatal(`README.md has no "## Layout" section`)
	}
	layout := readme[i+1:]
	if j := strings.Index(layout[1:], "\n## "); j >= 0 {
		layout = layout[:j+1]
	}
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	var missing []string
	for _, d := range dirs {
		if pkg := "internal/" + d.Name(); d.IsDir() && !strings.Contains(layout, "`"+pkg+"`") {
			missing = append(missing, pkg)
		}
	}
	if len(missing) > 0 {
		t.Errorf("%d packages missing from README's Layout: %s", len(missing), strings.Join(missing, ", "))
	}
}

func TestDesignIsShort(t *testing.T) {
	lines := strings.Count(readDoc(t, "DESIGN.md"), "\n")
	if lines > designMaxLines {
		t.Errorf("DESIGN.md is %d lines, over %d: state each decision's rule, not its history", lines, designMaxLines)
	}
}
