package replay

import (
	"bytes"
	"context"
	"flag"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"gapplydb"
)

// corpusDir is the checked-in corpus relative to this package.
const corpusDir = "../testdata/corpus"

var update = flag.Bool("update", false, "rewrite the corpus goldens under testdata/corpus/golden")

var (
	goldenOnce sync.Once
	goldenDB   *gapplydb.Database
)

func goldenDatabase(t *testing.T) *gapplydb.Database {
	t.Helper()
	goldenOnce.Do(func() {
		c, err := Load(corpusDir)
		if err != nil {
			panic(err)
		}
		db, err := gapplydb.OpenTPCH(c.ScaleFactor)
		if err != nil {
			panic(err)
		}
		goldenDB = db
	})
	return goldenDB
}

// copyCorpus clones the checked-in corpus into a temp dir so golden
// regeneration can run without touching the repository.
func copyCorpus(t *testing.T, withGoldens bool) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(corpusDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(corpusDir, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !withGoldens && filepath.Dir(rel) == "golden" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestUpdateGoldensDeterministic is the -update contract: regenerating
// from scratch writes every golden, and a second pass over the result
// changes nothing.
func TestUpdateGoldensDeterministic(t *testing.T) {
	dir := copyCorpus(t, false)
	c, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	db := goldenDatabase(t)
	ctx := context.Background()

	first, err := UpdateGoldens(ctx, db, c)
	if err != nil {
		t.Fatal(err)
	}
	wantGoldens := 0
	for _, q := range c.Queries {
		if q.Expect.Error == "" {
			wantGoldens++
		}
	}
	if len(first) != wantGoldens {
		t.Fatalf("first pass wrote %d goldens (%v), want %d", len(first), first, wantGoldens)
	}
	second, err := UpdateGoldens(ctx, db, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(second) != 0 {
		t.Fatalf("second pass changed %v, want no-op", second)
	}
}

// TestCheckedInGoldensFresh regenerates into a clone and verifies the
// repository's goldens are byte-identical — i.e. nobody changed the
// engine (or the corpus) without rerunning -update. With -update it
// regenerates the checked-in goldens in place instead; the diff is the
// review artifact.
func TestCheckedInGoldensFresh(t *testing.T) {
	if *update {
		c, err := Load(corpusDir)
		if err != nil {
			t.Fatal(err)
		}
		changed, err := UpdateGoldens(context.Background(), goldenDatabase(t), c)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %d golden(s): %v", len(changed), changed)
		return
	}
	dir := copyCorpus(t, true)
	c, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	changed, err := UpdateGoldens(context.Background(), goldenDatabase(t), c)
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) != 0 {
		t.Fatalf("checked-in goldens are stale: %v (regenerate with go test ./replay -run TestCheckedInGoldensFresh -update)", changed)
	}
	// And the clone really matches the originals byte for byte.
	for _, q := range c.Queries {
		if q.Expect.Error != "" {
			continue
		}
		got, err := os.ReadFile(c.GoldenPath(q))
		if err != nil {
			t.Fatal(err)
		}
		orig := &Corpus{Dir: corpusDir, Manifest: c.Manifest}
		want, err := os.ReadFile(orig.GoldenPath(q))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: regenerated golden differs from checked-in", q.Name)
		}
	}
}

// TestUpdateGoldensRemovesStale checks an error-expecting query's
// leftover golden is deleted on regeneration.
func TestUpdateGoldensRemovesStale(t *testing.T) {
	dir := copyCorpus(t, true)
	c, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	var errQ *Query
	for _, q := range c.Queries {
		if q.Expect.Error != "" {
			errQ = q
			break
		}
	}
	if errQ == nil {
		t.Skip("corpus has no error-expecting query")
	}
	stale := c.GoldenPath(errQ)
	if err := os.WriteFile(stale, []byte("stale\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	changed, err := UpdateGoldens(context.Background(), goldenDatabase(t), c)
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) != 1 || changed[0] != filepath.Base(stale) {
		t.Fatalf("changed = %v, want [%s]", changed, filepath.Base(stale))
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale golden still present: %v", err)
	}
}

// TestCheckDataMismatch pins the guard's failure mode: a server loaded
// at the wrong scale factor must fail with the actionable message, not
// a golden diff.
func TestCheckDataMismatch(t *testing.T) {
	c := &Corpus{Manifest: Manifest{ScaleFactor: 0.001, PartsuppRows: 800}}
	if err := c.CheckData([][]any{{int64(800)}}); err != nil {
		t.Fatalf("matching data: %v", err)
	}
	err := c.CheckData([][]any{{int64(8000)}})
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("-sf 0.001")) {
		t.Fatalf("err = %v, want scale-factor advice", err)
	}
}
