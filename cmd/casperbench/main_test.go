package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestRefusesReinterpretedFlags runs the command in a child process for
// each flag set the sweep would otherwise quietly reinterpret, and wants
// exit status 2 with a one-line message naming the flag, before any
// experiment runs.
func TestRefusesReinterpretedFlags(t *testing.T) {
	if args, ok := os.LookupEnv("CASPERBENCH_TEST_ARGS"); ok {
		os.Args = append([]string{"casperbench"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, tc := range []struct{ args, flag string }{
		{"-run tab1 -scale 0", "-scale"},
		{"-run tab1 -scale -1", "-scale"},
		{"-run tab1 -scale NaN", "-scale"},
		{"-run tab1 -quick -scale 0.5", "-quick"},
		{"-run faultchaos -chaosseed -3", "-chaosseed"},
		{"-run fig5a -chaosseed 3", "-chaosseed"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestRefusesReinterpretedFlags$")
		cmd.Env = append(os.Environ(), "CASPERBENCH_TEST_ARGS="+tc.args)
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("%s: %v, want exit status 2 (output %q)", tc.args, err, out)
			continue
		}
		msg := strings.TrimSuffix(string(out), "\n")
		if strings.Contains(msg, "\n") || !strings.Contains(msg, tc.flag) {
			t.Errorf("%s: output %q, want one line naming %s", tc.args, out, tc.flag)
		}
	}
}
