package repro

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/pintest"
)

// TestExamplesPrintTheirPins runs the small examples with go run and
// pins the SHA-256 of what each prints. Every run is deterministic, so
// a change that moves an example's output, a schedule change or a
// vnet API change, shows here as a moved pin (GOLDEN_UPDATE=1 records
// it). megaswarm takes ~25 s and is left out.
func TestExamplesPrintTheirPins(t *testing.T) {
	for _, args := range [][]string{
		{"quickstart"},
		{"contention"},
		{"locality"},
		{"partition"},
		{"contention", "-peers", "3", "-trace"},
	} {
		name := strings.Join(args, " ")
		t.Run(name, func(t *testing.T) {
			cmd := exec.Command("go", append([]string{"run", "./examples/" + args[0]}, args[1:]...)...)
			cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=", "GOTOOLCHAIN=local")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("go run ./examples/%s: %v\n%s", name, err, stderr.Bytes())
			}
			sum := sha256.Sum256(out)
			pintest.Check(t, "example "+name, hex.EncodeToString(sum[:]))
		})
	}
}
