package doppelganger

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"doppelganger/internal/secure"
)

// TestReadmeSchemesTable keeps the README's Schemes table in step with the
// scheme registry: it must list exactly AllSchemes, by name and in order.
func TestReadmeSchemesTable(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "\n## Schemes\n")
	if !ok {
		t.Fatal("README has no Schemes section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	row := regexp.MustCompile("(?m)^\\| `([^`]+)` +\\|")
	var got []string
	for _, m := range row.FindAllStringSubmatch(section, -1) {
		got = append(got, m[1])
	}
	if want := secure.Names(secure.AllSchemes()); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("README Schemes table lists %v, want %v", got, want)
	}
}
