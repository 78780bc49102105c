package asi

import (
	"strings"
	"testing"
)

func TestPI4OpClassification(t *testing.T) {
	if PI4ReadRequest.IsCompletion() || PI4WriteRequest.IsCompletion() {
		t.Error("request classified as completion")
	}
	for _, op := range []PI4Op{PI4ReadCompletionData, PI4ReadCompletionError, PI4WriteCompletion, PI4WriteCompletionError} {
		if !op.IsCompletion() {
			t.Errorf("%v not classified as completion", op)
		}
	}
}

func TestStringerCoverage(t *testing.T) {
	for _, s := range []string{
		DeviceSwitch.String(), DeviceEndpoint.String(), DeviceType(99).String(),
		PI4ReadRequest.String(), PI4Op(99).String(),
		PI5PortUp.String(), PI5PortDown.String(), PI5EventCode(9).String(),
		(&PI4{}).String(), PI5{}.String(), FMSync{}.String(), Heartbeat{}.String(),
		DSN(1).String(),
	} {
		if s == "" {
			t.Error("empty Stringer output")
		}
	}
	if !strings.Contains((&PI4{Op: PI4ReadRequest}).String(), "read-request") {
		t.Error("PI4 String misses op name")
	}
}

func TestPI4OpStringsAll(t *testing.T) {
	ops := []PI4Op{
		PI4ReadRequest, PI4ReadCompletionData, PI4ReadCompletionError,
		PI4WriteRequest, PI4WriteCompletion, PI4WriteCompletionError,
		PI4ClaimRequest, PI4ClaimCompletion,
	}
	for _, op := range ops {
		s := op.String()
		if s == "" || s[0:2] == "PI" {
			t.Errorf("op %d renders as %q (expected a named op)", op, s)
		}
	}
}
