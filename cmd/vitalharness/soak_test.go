package main

import (
	"strings"
	"testing"
)

func TestParseSoakFlagsRejectsCountsBelowOne(t *testing.T) {
	for _, flag := range []string{"tenants", "concurrency", "ops", "qdepth", "qworkers"} {
		for _, v := range []string{"0", "-1"} {
			t.Run(flag+"="+v, func(t *testing.T) {
				_, err := parseSoakFlags([]string{"-" + flag, v})
				if err == nil || !strings.Contains(err.Error(), "-"+flag+" must be at least 1") {
					t.Fatalf("parseSoakFlags(-%s %s) = %v, want a usage error naming -%s", flag, v, err, flag)
				}
			})
		}
	}
}

func TestParseSoakFlagsDefaults(t *testing.T) {
	cfg, err := parseSoakFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.tenants != 200 || cfg.concurrency != 24 || cfg.ops != 300 || cfg.qdepth != 64 || cfg.qworkers != 4 {
		t.Errorf("defaults = %+v", cfg)
	}
	if cfg.warmup != 100 {
		t.Errorf("warmup = %d, want ops/3 = 100", cfg.warmup)
	}

	// Fewer tenants than clients caps the clients, so every client owns
	// at least one tenant.
	cfg, err = parseSoakFlags([]string{"-tenants", "3", "-concurrency", "8"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.concurrency != 3 {
		t.Errorf("concurrency = %d, want capped to 3 tenants", cfg.concurrency)
	}
}

func TestParseSoakFlagsRejectsDesignsOutOfRange(t *testing.T) {
	for _, v := range []string{"0", "11"} {
		if _, err := parseSoakFlags([]string{"-designs", v}); err == nil {
			t.Errorf("-designs %s accepted", v)
		}
	}
}
