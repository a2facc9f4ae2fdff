package vsession

import "testing"

// Pinned session digests: the paired-run tests only prove a session is
// reproducible within one build; these literals prove it reproduces the
// same bytes across changes to the event loop, links and transports.
const (
	goldenSingleFaulted = "68b87e2e2888acff4425120f47a7640d455f708c05f3e00e17bf4bb4c6eda88e"
	goldenTwoPathMPTCP  = "43c0c2f164e058fe546b9ceed66ff7597dfe06b04e0ccffb37a134143942854b"
)

func TestSessionDigestsGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"single-path with fault windows", faultedConfig(), goldenSingleFaulted},
		{"two-path MPTCP", twoPathConfig(), goldenTwoPathMPTCP},
	} {
		res, err := Run(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Digest != c.want {
			t.Errorf("%s: digest %s, pinned %s\n%s", c.name, res.Digest, c.want, res.CSV())
		}
	}
}
