package main

import (
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
