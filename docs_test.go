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
	// "ROADMAP item 3", "ROADMAP items 3(b) and 14(c)", "(item 26)".
	roadmapCite = regexp.MustCompile(`(?:ROADMAP(?:\.md)?,?\s+|\()items?\s+(\d+(?:\([a-z]\))?(?:(?:,\s*|,?\s+and\s+)\d+(?:\([a-z]\))?)*)`)
	itemRef     = regexp.MustCompile(`(\d+)(?:\(([a-z])\))?`)
	openItem    = regexp.MustCompile(`(?m)^(\d+)\. \*\*`)
	subItem     = regexp.MustCompile(`(?m)^\s*- \(([a-z])\)`)
	commitID    = regexp.MustCompile(`^[0-9a-f]{7,40}$`)
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

// TestRoadmapCitationsResolve: every ROADMAP item a document or a
// source file cites is an open item of ROADMAP.md, and a sub-item
// letter is one that item lists as "- (x)". bench/ is left out: only
// a change to the benchmark may edit it.
func TestRoadmapCitationsResolve(t *testing.T) {
	roadmap := readDoc(t, "ROADMAP.md")
	start := strings.Index(roadmap, "\n## Open items\n")
	if start < 0 {
		t.Fatal(`ROADMAP.md has no "## Open items" section`)
	}
	open := roadmap[start+1:]
	if end := strings.Index(open[1:], "\n## "); end >= 0 {
		open = open[:end+1]
	}
	letters := map[string]map[string]bool{} // open item -> its sub-item letters
	starts := openItem.FindAllStringSubmatchIndex(open, -1)
	for i, m := range starts {
		body := open[m[1]:]
		if i+1 < len(starts) {
			body = open[m[1]:starts[i+1][0]]
		}
		subs := map[string]bool{}
		for _, sm := range subItem.FindAllStringSubmatch(body, -1) {
			subs[sm[1]] = true
		}
		letters[open[m[2]:m[3]]] = subs
	}
	if len(letters) == 0 {
		t.Fatal("ROADMAP.md lists no open items")
	}
	citing := []string{"DESIGN.md", "README.md"}
	for _, f := range goFiles(t) {
		if !strings.HasPrefix(filepath.ToSlash(f), "bench/") {
			citing = append(citing, f)
		}
	}
	var stale []string
	cites := 0
	for _, f := range citing {
		text := lineBreak.ReplaceAllString(readDoc(t, f), " ")
		for _, m := range roadmapCite.FindAllStringSubmatch(text, -1) {
			for _, ref := range itemRef.FindAllStringSubmatch(m[1], -1) {
				cites++
				subs, ok := letters[ref[1]]
				if !ok || ref[2] != "" && !subs[ref[2]] {
					stale = append(stale, f+": "+m[0]+": "+ref[0])
				}
			}
		}
	}
	if cites == 0 {
		t.Fatal("found no ROADMAP citation to check")
	}
	if len(stale) > 0 {
		t.Errorf("%d ROADMAP citations name no open item or sub-item:\n%s",
			len(stale), strings.Join(stale, "\n"))
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
