package obs

import (
	"context"
	"encoding/hex"
)

// NewRequestID returns a fresh 16-hex-character request identifier.
func NewRequestID() string {
	var b [8]byte
	if err := randomBytes(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; a fixed fallback
		// keeps the middleware total rather than panicking a handler.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

type ctxKey int

const requestIDKey ctxKey = iota

// WithRequestID stores a request ID in the context.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey, id)
}

// RequestIDFrom returns the request ID stored by WithRequestID, or "".
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}
