package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"satcell/internal/trace"
)

// refFsckFiles is the two-read audit of manifest files the single-read
// auditFile replaced: VerifyFile hashes the file, and only a verified
// file is opened again and strict-parsed into memory.
func refFsckFiles(t *testing.T, dir string) ([]Problem, int) {
	t.Helper()
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep := &FsckReport{}
	for _, name := range shardNames(t, dir) {
		if err := m.VerifyFile(dir, name); err != nil {
			rep.problem(name, "%v", err)
			continue
		}
		path := filepath.Join(dir, name)
		switch {
		case name == "tests.csv":
			rows, loadRep, err := LoadTests(path, Strict)
			if err != nil {
				rep.problem(name, "%v", err)
				continue
			}
			rep.RowsChecked += loadRep.Rows
			if len(rows) != m.Files[name].Rows {
				rep.problem(name, "row count %d, manifest says %d", len(rows), m.Files[name].Rows)
			}
		case strings.HasPrefix(name, "drive"):
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := trace.ReadCSV(f)
			f.Close()
			if err != nil {
				rep.problem(name, "%v", fmt.Errorf("store: %s: %w", path, err))
				continue
			}
			rep.RowsChecked += len(tr.Samples)
			if len(tr.Samples) != m.Files[name].Rows {
				rep.problem(name, "row count %d, manifest says %d", len(tr.Samples), m.Files[name].Rows)
			}
			last := time.Duration(-1)
			for i, s := range tr.Samples {
				if s.At <= last {
					rep.problem(name, "timestamps not strictly increasing at sample %d (%v after %v)",
						i, s.At, last)
					break
				}
				last = s.At
			}
		}
	}
	return rep.Problems, rep.RowsChecked
}

// remanifest rewrites name's manifest entry around its current bytes,
// so only content checks can object to an edit.
func remanifest(t *testing.T, dir, name string) {
	t.Helper()
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	sum, size, err := HashFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	fi := m.Files[name]
	fi.SHA256, fi.Bytes = sum, size
	m.Files[name] = fi
	if err := m.Write(dir); err != nil {
		t.Fatal(err)
	}
}

// editLines rewrites a file line by line.
func editLines(t *testing.T, path string, edit func([]string) []string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := edit(strings.Split(strings.TrimSuffix(string(b), "\n"), "\n"))
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFsckMatchesTwoReadReference damages exports in every way fsck
// tells apart — identity findings, and content findings behind a
// regenerated manifest entry — and requires the single-read audit to
// report exactly what the two-read audit reports, in the same order,
// with the same row total.
func TestFsckMatchesTwoReadReference(t *testing.T) {
	cases := map[string]func(t *testing.T, dir string, shard, shard2 string){
		"clean": func(*testing.T, string, string, string) {},
		"truncated and flipped": func(t *testing.T, dir, shard, shard2 string) {
			truncateFile(t, filepath.Join(dir, shard), 7)
			editLines(t, filepath.Join(dir, shard2), func(l []string) []string {
				l[3] = strings.Replace(l[3], ",", ";", 1)
				return l
			})
		},
		"unparseable row": func(t *testing.T, dir, shard, _ string) {
			editLines(t, filepath.Join(dir, shard), func(l []string) []string {
				l[4] = "not,a,row"
				return l
			})
			remanifest(t, dir, shard)
		},
		"network change": func(t *testing.T, dir, shard, _ string) {
			editLines(t, filepath.Join(dir, shard), func(l []string) []string {
				net, _, _ := strings.Cut(l[1], ",")
				other := "ATT"
				if net == other {
					other = "VZ"
				}
				l[5] = other + strings.TrimPrefix(l[5], net)
				return l
			})
			remanifest(t, dir, shard)
		},
		"out of order and short": func(t *testing.T, dir, shard, shard2 string) {
			editLines(t, filepath.Join(dir, shard), func(l []string) []string {
				l[2], l[3] = l[3], l[2]
				return l[:len(l)-2]
			})
			remanifest(t, dir, shard)
			editLines(t, filepath.Join(dir, shard2), func(l []string) []string { return l[:1] })
			remanifest(t, dir, shard2)
		},
		"tests row dropped": func(t *testing.T, dir, _, _ string) {
			editLines(t, filepath.Join(dir, "tests.csv"), func(l []string) []string { return l[:len(l)-1] })
			remanifest(t, dir, "tests.csv")
		},
		"tests bad outcome": func(t *testing.T, dir, _, _ string) {
			editLines(t, filepath.Join(dir, "tests.csv"), func(l []string) []string {
				fields := strings.Split(l[2], ",")
				fields[12] = "exploded" // the outcome column
				l[2] = strings.Join(fields, ",")
				return l
			})
			remanifest(t, dir, "tests.csv")
		},
		"missing": func(t *testing.T, dir, shard, _ string) {
			if err := os.Remove(filepath.Join(dir, shard)); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, damage := range cases {
		t.Run(name, func(t *testing.T) {
			dir := exportClean(t)
			names := shardNames(t, dir)
			damage(t, dir, names[0], names[1])
			wantProblems, wantRows := refFsckFiles(t, dir)
			rep, err := Fsck(dir)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(rep.Problems) != fmt.Sprint(wantProblems) || rep.RowsChecked != wantRows {
				t.Fatalf("single read: %d rows, %v\ntwo reads:   %d rows, %v",
					rep.RowsChecked, rep.Problems, wantRows, wantProblems)
			}
			if name != "clean" && len(wantProblems) == 0 {
				t.Fatal("the damage went unnoticed by both audits")
			}
		})
	}
}
