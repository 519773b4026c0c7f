package replay

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeCorpus materializes a minimal corpus in a temp dir from a
// manifest string and sql file map.
func writeCorpus(t *testing.T, manifest string, sqls map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "sql"), 0o755); err != nil {
		t.Fatal(err)
	}
	for name, sql := range sqls {
		if err := os.WriteFile(filepath.Join(dir, "sql", name+".sql"), []byte(sql), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const validManifest = `{
  "version": 1, "scale_factor": 0.001, "partsupp_rows": 800,
  "queries": [
    {"name": "a", "kind": "rows", "expect": {"golden": true}}
  ]
}`

func TestLoadValid(t *testing.T) {
	dir := writeCorpus(t, validManifest, map[string]string{"a": "select 1\n"})
	c, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Queries) != 1 || c.Queries[0].SQL != "select 1" {
		t.Fatalf("unexpected corpus: %+v", c.Queries)
	}
	// Dop matrix defaults when the manifest leaves it out.
	if len(c.Workload.Dops) != 2 || c.Workload.Dops[0] != 1 || c.Workload.Dops[1] != 8 {
		t.Fatalf("default dops = %v, want [1 8]", c.Workload.Dops)
	}
	if got := c.GoldenPath(c.Queries[0]); filepath.Base(got) != "a.rows" {
		t.Fatalf("golden path = %s", got)
	}
}

func TestLoadRejects(t *testing.T) {
	cases := []struct {
		name     string
		manifest string
		sqls     map[string]string
		want     string
	}{
		{
			name: "bad version",
			manifest: `{"version": 2, "scale_factor": 0.001, "partsupp_rows": 800,
				"queries": [{"name": "a", "kind": "rows", "expect": {}}]}`,
			sqls: map[string]string{"a": "select 1"},
			want: "version",
		},
		{
			name: "bad kind",
			manifest: `{"version": 1, "scale_factor": 0.001, "partsupp_rows": 800,
				"queries": [{"name": "a", "kind": "csv", "expect": {}}]}`,
			sqls: map[string]string{"a": "select 1"},
			want: "bad kind",
		},
		{
			name: "duplicate name",
			manifest: `{"version": 1, "scale_factor": 0.001, "partsupp_rows": 800,
				"queries": [{"name": "a", "kind": "rows", "expect": {}}, {"name": "a", "kind": "rows", "expect": {}}]}`,
			sqls: map[string]string{"a": "select 1"},
			want: "duplicate",
		},
		{
			name: "uppercase name",
			manifest: `{"version": 1, "scale_factor": 0.001, "partsupp_rows": 800,
				"queries": [{"name": "Bad", "kind": "rows", "expect": {}}]}`,
			sqls: map[string]string{"Bad": "select 1"},
			want: "bad query name",
		},
		{
			name: "error plus golden",
			manifest: `{"version": 1, "scale_factor": 0.001, "partsupp_rows": 800,
				"queries": [{"name": "a", "kind": "rows", "expect": {"golden": true, "error": "timeout"}}]}`,
			sqls: map[string]string{"a": "select 1"},
			want: "cannot also expect a golden",
		},
		{
			name: "missing sql file",
			manifest: `{"version": 1, "scale_factor": 0.001, "partsupp_rows": 800,
				"queries": [{"name": "a", "kind": "rows", "expect": {}}]}`,
			sqls: map[string]string{},
			want: "a.sql",
		},
		{
			name: "unknown manifest field",
			manifest: `{"version": 1, "scale_factor": 0.001, "partsupp_rows": 800, "bogus": 1,
				"queries": [{"name": "a", "kind": "rows", "expect": {}}]}`,
			sqls: map[string]string{"a": "select 1"},
			want: "bogus",
		},
		{
			name: "missing tag plan",
			manifest: `{"version": 1, "scale_factor": 0.001, "partsupp_rows": 800,
				"queries": [{"name": "a", "kind": "xml", "expect": {}}]}`,
			sqls: map[string]string{"a": "select 1"},
			want: "a.json",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := writeCorpus(t, tc.manifest, tc.sqls)
			_, err := Load(dir)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestRenderRows(t *testing.T) {
	got := string(RenderRows(
		[]string{"k", "v"},
		[][]any{
			{int64(1), "plain"},
			{nil, "tab\there"},
			{3.5, true},
		},
	))
	want := "# columns: k\tv\n" +
		"1\t\"plain\"\n" +
		"\\N\t\"tab\\there\"\n" +
		"3.5\ttrue\n"
	if got != want {
		t.Fatalf("RenderRows:\ngot  %q\nwant %q", got, want)
	}
}

func TestDiffRendered(t *testing.T) {
	if err := DiffRendered([]byte("a\nb\n"), []byte("a\nb\n")); err != nil {
		t.Fatalf("equal inputs: %v", err)
	}
	err := DiffRendered([]byte("a\nX\n"), []byte("a\nb\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("diff = %v, want line-2 report", err)
	}
}
