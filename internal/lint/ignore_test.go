package lint

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParseIgnoreDirective(t *testing.T) {
	cases := []struct {
		text   string
		checks []string
		reason string
		ok     bool
	}{
		{"//lint:ignore norand seeded baseline", []string{"norand"}, "seeded baseline", true},
		{"//lint:ignore errcheck,maporder both are fine here", []string{"errcheck", "maporder"}, "both are fine here", true},
		{"//lint:ignore notime    metrics   timing  ", []string{"notime"}, "metrics timing", true},
		{"//lint:ignore a-b_2 reason words", []string{"a-b_2"}, "reason words", true},

		{"//lint:ignore", nil, "", false},                                    // nothing at all
		{"//lint:ignore norand", nil, "", false},                             // reason is mandatory
		{"//lint:ignore    ", nil, "", false},                                // whitespace only
		{"//lint:ignorenorand reason", nil, "", false},                       // glued marker
		{"//lint:ignore norand,,errcheck r", nil, "", false},                 // empty list element
		{"//lint:ignore ,norand r", nil, "", false},                          // leading comma
		{"//lint:ignore nor&and reason", nil, "", false},                     // bad check character
		{"//lint:ignore \x00 reason", nil, "", false},                        // control bytes
		{"// lint:ignore norand reason", nil, "", false},                     // space before marker
		{"//nolint:ignore norand reason", nil, "", false},                    // wrong namespace
		{"/*lint:ignore norand reason*/", nil, "", false},                    // block comments don't count
		{"//lint:ignore\tnorand reason", []string{"norand"}, "reason", true}, // tab after marker is fine
	}
	for _, c := range cases {
		checks, reason, ok := ParseIgnoreDirective(c.text)
		if ok != c.ok {
			t.Errorf("ParseIgnoreDirective(%q) ok = %v, want %v", c.text, ok, c.ok)
			continue
		}
		if !ok {
			if checks != nil || reason != "" {
				t.Errorf("ParseIgnoreDirective(%q) returned %v/%q despite !ok", c.text, checks, reason)
			}
			continue
		}
		if !reflect.DeepEqual(checks, c.checks) || reason != c.reason {
			t.Errorf("ParseIgnoreDirective(%q) = %v, %q; want %v, %q", c.text, checks, reason, c.checks, c.reason)
		}
	}
}

func TestDirectiveSuppressesLines(t *testing.T) {
	d := ignoreDirective{checks: []string{"norand", "errcheck"}, line: 10, file: "f.go"}
	for _, c := range []struct {
		check string
		line  int
		want  bool
	}{
		{"norand", 10, true},   // trailing on the offending line
		{"norand", 11, true},   // directive on the line above
		{"errcheck", 11, true}, // any listed check
		{"norand", 12, false},  // two lines below: out of range
		{"norand", 9, false},   // directives never look upward
		{"notime", 11, false},  // unlisted check
	} {
		if got := d.suppresses(c.check, c.line); got != c.want {
			t.Errorf("suppresses(%q, %d) = %v, want %v", c.check, c.line, got, c.want)
		}
	}
}

// TestMalformedDirectivesAreReported runs the driver over a package of
// malformed //lint: comments: each must surface as a DirectiveCheck
// diagnostic, and the violation sitting under one of them must still fire
// — a broken directive degrades to "not a suppression", never to a silent
// one.
func TestMalformedDirectivesAreReported(t *testing.T) {
	pkg, err := loadDir(filepath.Join("testdata", "src", "directive"))
	if err != nil {
		t.Fatal(err)
	}
	res := RunPackage(pkg, []*Analyzer{ErrCheck}, nil)
	if len(res.Suppressed) != 0 {
		t.Errorf("malformed directives suppressed %d diagnostics: %v", len(res.Suppressed), res.Suppressed)
	}
	var malformed, errchecks int
	for _, d := range res.Diagnostics {
		switch d.Check {
		case DirectiveCheck:
			malformed++
			if !strings.Contains(d.Message, "malformed //lint: directive") {
				t.Errorf("unexpected directive message: %s", d)
			}
		case "errcheck":
			errchecks++
		default:
			t.Errorf("unexpected check %q: %s", d.Check, d)
		}
	}
	if malformed != 11 {
		t.Errorf("%d malformed-directive diagnostics, want 11 (one per bad comment)", malformed)
	}
	if errchecks != 1 {
		t.Errorf("%d errcheck diagnostics, want 1 (the Atoi under a reason-less directive must still fire)", errchecks)
	}
}
