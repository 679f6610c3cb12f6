package harness_test

import (
	"context"
	"os"
	"testing"
	"time"

	"swsm/internal/apps"
	"swsm/internal/harness"
)

func TestFigure3One(t *testing.T) {
	app := os.Getenv("FIG3_APP")
	if app == "" {
		app = "fft"
	}
	start := time.Now()
	bar, err := harness.Figure3(context.Background(), harness.NewSession(0).Points, app, apps.Base, 16, harness.Figure3Configs)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("wall %v\n%s", time.Since(start), harness.FormatFigure3(bar, harness.Figure3Configs))
}
