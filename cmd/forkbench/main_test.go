package main

import (
	"bytes"
	"go/parser"
	"go/token"
	"reflect"
	"strings"
	"testing"
)

// TestUsageListsEveryExperiment holds the package doc's experiment list
// to the experiments table, in order: the list is what `go doc` shows,
// and nothing else keeps it from drifting when an experiment is added
// or removed.
func TestUsageListsEveryExperiment(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	doc := f.Doc.Text()
	const marker = "Experiments:"
	i := strings.Index(doc, marker)
	if i < 0 {
		t.Fatalf("package doc has no %q list", marker)
	}
	list := doc[i+len(marker):]
	if end := strings.Index(list, "\n\n"); end >= 0 {
		list = list[:end]
	}
	var table []string
	for _, e := range experiments {
		table = append(table, e.name)
	}
	if got := strings.Fields(list); !reflect.DeepEqual(got, table) {
		t.Errorf("package doc lists %v\nexperiments table has %v", got, table)
	}
}

// TestUnknownExperimentRunsNothing: every name is checked before any
// experiment runs, so a bad name late in the list costs nothing.
func TestUnknownExperimentRunsNothing(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"fig15", "nosuch"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit status %d; want 2", code)
	}
	if stdout.Len() != 0 {
		t.Fatalf("an experiment ran before the bad name was reported:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), `unknown experiment "nosuch"`) {
		t.Fatalf("stderr does not name the bad experiment:\n%s", stderr.String())
	}
}
