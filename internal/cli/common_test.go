package cli

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func parseCommon(t *testing.T, args ...string) (*Common, error) {
	t.Helper()
	var c Common
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c.RegisterWorkers(fs)
	c.RegisterJSON(fs)
	c.RegisterConfig(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return &c, c.Validate()
}

func TestCommonParsesSharedFlags(t *testing.T) {
	c, err := parseCommon(t, "-workers", "2", "-json", "-config", "x.json")
	if err != nil {
		t.Fatal(err)
	}
	if c.Workers != 2 || !c.JSON || c.ConfigPath != "x.json" {
		t.Errorf("parsed %+v", c)
	}
	if c, err := parseCommon(t); err != nil || c.Workers != 0 || c.JSON {
		t.Errorf("defaults: %+v, %v", c, err)
	}
}

func TestCommonValidateNamesValidValues(t *testing.T) {
	if _, err := parseCommon(t, "-workers", "-1"); err == nil {
		t.Error("negative workers accepted")
	} else if !strings.Contains(err.Error(), "GOMAXPROCS") {
		t.Errorf("workers error %q does not explain valid values", err)
	}
}

func TestCommonLoadDaemonConfig(t *testing.T) {
	c, err := parseCommon(t)
	if err != nil {
		t.Fatal(err)
	}
	dc, err := c.LoadDaemonConfig()
	if err != nil {
		t.Fatal(err)
	}
	if dc.Topology == "" || dc.Listen == "" {
		t.Errorf("defaults not loaded: %+v", dc)
	}

	path := filepath.Join(t.TempDir(), "daemon.json")
	if err := os.WriteFile(path, []byte(`{"topology":"4x4 mesh","churn_ops":2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	c.ConfigPath = path
	dc, err = c.LoadDaemonConfig()
	if err != nil {
		t.Fatal(err)
	}
	if dc.Topology != "4x4 mesh" || dc.ChurnOps != 2 {
		t.Errorf("file not applied: %+v", dc)
	}

	if err := os.WriteFile(path, []byte(`{"topology":"nope"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := c.LoadDaemonConfig(); err == nil {
		t.Error("invalid config file accepted")
	} else if !strings.Contains(err.Error(), path) {
		t.Errorf("error %q does not name the file", err)
	}
	c.ConfigPath = filepath.Join(t.TempDir(), "missing.json")
	if _, err := c.LoadDaemonConfig(); err == nil {
		t.Error("missing config file accepted")
	}
}
