package cli

import (
	"flag"
	"io"
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
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return &c, c.Validate()
}

func TestCommonParsesSharedFlags(t *testing.T) {
	c, err := parseCommon(t, "-workers", "2", "-json")
	if err != nil {
		t.Fatal(err)
	}
	if c.Workers != 2 || !c.JSON {
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
