package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// fingerprint identifies the machine and source a record was measured on.
// Records compare only when their machine parts are equal; the source
// parts say which code was measured.
type fingerprint struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	// GitCommit is "none" outside a git work tree, where SourceDigest
	// still identifies the code.
	GitCommit    string `json:"git_commit"`
	GitDirty     bool   `json:"git_dirty"`
	SourceDigest string `json:"source_digest"`
}

// machine is the part of a fingerprint two comparable records share.
func (f fingerprint) machine() fingerprint {
	f.GitCommit, f.GitDirty, f.SourceDigest = "", false, ""
	return f
}

func takeFingerprint() (fingerprint, error) {
	digest, err := sourceDigest(".")
	if err != nil {
		return fingerprint{}, err
	}
	commit, dirty := gitState()
	return fingerprint{
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		CPUModel:     cpuModel(),
		GitCommit:    commit,
		GitDirty:     dirty,
		SourceDigest: digest,
	}, nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitState returns HEAD and whether tracked files differ from it, or
// "none" when the working directory is not the top of a git work tree (a
// parent directory's repository says nothing about this tree).
func gitState() (string, bool) {
	git := func(args ...string) (string, bool) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		out, err := exec.CommandContext(ctx, "git", args...).Output()
		return strings.TrimSpace(string(out)), err == nil
	}
	top, ok := git("rev-parse", "--show-toplevel")
	wd, err := os.Getwd()
	if !ok || err != nil || filepath.Clean(top) != filepath.Clean(wd) {
		return "none", false
	}
	head, ok := git("rev-parse", "HEAD")
	if !ok {
		return "none", false
	}
	status, ok := git("status", "--porcelain", "--untracked-files=no")
	return head, !ok || status != ""
}

// sourceDigest hashes every file a run's results depend on: Go sources,
// module files, scenario specs and goldens, skipping the build directory
// and version-control metadata.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == buildDir || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(path) {
		case ".go", ".mod", ".json", ".txt":
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		h.Write([]byte(filepath.ToSlash(f) + "\x00"))
		h.Write(data)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
