package fail

import (
	"slices"
	"testing"
)

// FuzzParseAction feeds arbitrary strings to the FAILPOINTS action
// grammar. ParseAction must never panic; a spec it accepts must carry a
// known Kind and no negative Times, Bytes or Delay; and arming the
// action on a test-registered point and disarming it again must leave
// Active() as it was.
func FuzzParseAction(f *testing.F) {
	for _, s := range []string{
		"error", "error:2", "error:0", "error:x", "error:2:3",
		"panic", "panic:1",
		"sleep", "sleep:15ms", "sleep:1s:4", "sleep:-1s", "sleep:zzz", "sleep:1s:-1",
		"shortwrite:8", "shortwrite:0:1", "shortwrite:-1", "shortwrite:99999999999999999999",
		"", ":", "nope", "error:9223372036854775807",
	} {
		f.Add(s)
	}
	const site = "test/fuzz-parse-action"
	p := Register(site)
	Disarm(site) // neutralize a FAILPOINTS=random chaos run
	f.Fuzz(func(t *testing.T, spec string) {
		a, err := ParseAction(spec)
		if err != nil {
			return
		}
		switch a.Kind {
		case Error, Panic, Sleep, ShortWrite:
		default:
			t.Fatalf("ParseAction(%q) accepted unknown kind %d", spec, a.Kind)
		}
		if a.Times < 0 || a.Bytes < 0 || a.Delay < 0 {
			t.Fatalf("ParseAction(%q) = %+v: negative Times, Bytes or Delay", spec, a)
		}

		before := Active()
		slices.Sort(before)
		Arm(site, a)
		if p.cur.Load() == nil || !slices.Contains(Active(), site) {
			t.Fatalf("arming %+v from %q left %s disarmed", a, spec, site)
		}
		Disarm(site)
		after := Active()
		slices.Sort(after)
		if !slices.Equal(before, after) {
			t.Fatalf("arming and disarming %+v changed Active() from %v to %v", a, before, after)
		}
	})
}
