// Structured logging. The server, cluster and daemons log through
// log/slog with typed fields (session, member, slot, ...); an explicit
// discard logger stands in when none is configured, so call sites never
// need a nil check.
package telemetry

import (
	"context"
	"log/slog"
)

// NewDiscardLogger returns a logger that drops every record (all levels
// disabled, so argument evaluation is skipped too).
func NewDiscardLogger() *slog.Logger { return slog.New(discardHandler{}) }

type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }
