package main

import "testing"

func TestCompareRefusesOtherMachines(t *testing.T) {
	fp := fingerprint{GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 2, NumCPU: 2, CPUModel: "cpu"}
	a, b := record{Fingerprint: fp}, record{Fingerprint: fp}
	b.Fingerprint.GitCommit, b.Fingerprint.SourceDigest = "abc", "def"
	if err := sameMachine([]record{a, b}); err != nil {
		t.Fatalf("records of two commits on one machine refused: %v", err)
	}
	b.Fingerprint.GOMAXPROCS = 4
	if err := sameMachine([]record{a, b}); err == nil {
		t.Fatal("records with different GOMAXPROCS were accepted for comparison")
	}
}
