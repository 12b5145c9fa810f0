package wire

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"testing"

	"rdmaagreement"
	"rdmaagreement/internal/types"
)

func TestFromErrorTaxonomy(t *testing.T) {
	cases := []struct {
		name   string
		err    error
		status int
		code   string
	}{
		{"key moved sentinel", rdmaagreement.ErrKeyMoved, http.StatusMisdirectedRequest, CodeKeyMoved},
		{"key moved wrapped", fmt.Errorf("routing: %w", rdmaagreement.ErrKeyMoved), http.StatusMisdirectedRequest, CodeKeyMoved},
		{"lease lost", rdmaagreement.ErrLeaseLost, http.StatusServiceUnavailable, CodeLeaseLost},
		{"rebalance in progress", rdmaagreement.ErrRebalanceInProgress, http.StatusConflict, CodeRebalanceInProgress},
		{"invalid config", fmt.Errorf("shard name: %w", types.ErrInvalidConfig), http.StatusBadRequest, CodeBadRequest},
		{"closed", rdmaagreement.ErrLogClosed, http.StatusServiceUnavailable, CodeClosed},
		{"halted", rdmaagreement.ErrLogHalted, http.StatusInternalServerError, CodeHalted},
		{"deadline", context.DeadlineExceeded, http.StatusGatewayTimeout, CodeDeadline},
		{"canceled", context.Canceled, http.StatusGatewayTimeout, CodeDeadline},
		{"unknown", errors.New("disk on fire"), http.StatusInternalServerError, CodeInternal},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, werr := FromError(tc.err)
			if status != tc.status || werr.Code != tc.code {
				t.Fatalf("FromError(%v) = %d %q, want %d %q", tc.err, status, werr.Code, tc.status, tc.code)
			}
		})
	}
}

func TestFromErrorKeyMovedCarriesOwner(t *testing.T) {
	err := fmt.Errorf("apply: %w", &rdmaagreement.KeyMovedError{Key: "k", From: "shard-0", Owner: "shard-2"})
	status, werr := FromError(err)
	if status != http.StatusMisdirectedRequest || werr.Code != CodeKeyMoved {
		t.Fatalf("FromError = %d %q, want 421 key_moved", status, werr.Code)
	}
	if werr.Owner != "shard-2" {
		t.Fatalf("Owner = %q, want shard-2", werr.Owner)
	}
}

func TestSentinelRoundTrip(t *testing.T) {
	// Every store-originated code must round-trip to an errors.Is-able
	// sentinel; server-originated codes must not claim one.
	for code, want := range map[string]error{
		CodeKeyMoved:            rdmaagreement.ErrKeyMoved,
		CodeLeaseLost:           rdmaagreement.ErrLeaseLost,
		CodeRebalanceInProgress: rdmaagreement.ErrRebalanceInProgress,
		CodeClosed:              rdmaagreement.ErrLogClosed,
		CodeHalted:              rdmaagreement.ErrLogHalted,
	} {
		if got := Sentinel(code); got != want {
			t.Errorf("Sentinel(%q) = %v, want %v", code, got, want)
		}
	}
	for _, code := range []string{CodeOverloaded, CodeConnBusy, CodeDraining, CodeDeadline, CodeBadRequest, CodeInternal} {
		if got := Sentinel(code); got != nil {
			t.Errorf("Sentinel(%q) = %v, want nil", code, got)
		}
	}
}

func TestRetryable(t *testing.T) {
	for _, code := range []string{CodeKeyMoved, CodeLeaseLost, CodeOverloaded, CodeConnBusy, CodeDraining} {
		if !Retryable(code) {
			t.Errorf("Retryable(%q) = false, want true", code)
		}
	}
	for _, code := range []string{CodeRebalanceInProgress, CodeClosed, CodeHalted, CodeDeadline, CodeBadRequest, CodeInternal} {
		if Retryable(code) {
			t.Errorf("Retryable(%q) = true, want false", code)
		}
	}
}

func TestTenantKey(t *testing.T) {
	if got := TenantKey("", "k"); got != "default\x1fk" {
		t.Fatalf("TenantKey(\"\", k) = %q", got)
	}
	if got := TenantKey("acme", "k"); got != "acme\x1fk" {
		t.Fatalf("TenantKey(acme, k) = %q", got)
	}
	// Crafted keys must not collide across tenants: the separator cannot
	// appear in either half of a real request (it is not valid uninvited in a
	// URL path or header value).
	if TenantKey("a", "b/c") == TenantKey("a/b", "c") {
		t.Fatal("tenant/key concatenation is ambiguous")
	}
}
