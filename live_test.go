package hierdet

import (
	"reflect"
	"slices"
	"testing"

	"hierdet/internal/livenet"
)

// TestOneClusterConfig pins that a cluster's knobs are declared once:
// LiveConfig and TenantSpec are livenet.Config itself, and its exported
// fields are exactly these. Adding, renaming or removing a knob is an edit
// to this list.
func TestOneClusterConfig(t *testing.T) {
	one := reflect.TypeOf(livenet.Config{})
	if got := reflect.TypeOf(LiveConfig{}); got != one {
		t.Errorf("LiveConfig is %v, want livenet.Config", got)
	}
	if got := reflect.TypeOf(TenantSpec{}); got != one {
		t.Errorf("TenantSpec is %v, want livenet.Config", got)
	}
	want := []string{
		"Topology", "MaxDelay", "Seed", "Verify", "MailboxBound", "AdaptiveFlush",
		"Scheduler", "HbEvery", "SeekTimeout", "ResendLastOnAdopt", "Events",
		"Transport", "LocalNodes", "StartupGrace",
	}
	var got []string
	for i := 0; i < one.NumField(); i++ {
		if f := one.Field(i); f.IsExported() {
			got = append(got, f.Name)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("livenet.Config fields = %v\nwant %v", got, want)
	}
}
