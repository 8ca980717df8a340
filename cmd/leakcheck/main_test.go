package main

import "testing"

// TestDefaultSchemes pins the -schemes default to the figures matrix.
func TestDefaultSchemes(t *testing.T) {
	if got, want := defaultSchemes(), "unsafe,nda-p,stt,dom,cleanup"; got != want {
		t.Errorf("defaultSchemes() = %q, want %q", got, want)
	}
}
