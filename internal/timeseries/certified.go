package timeseries

import (
	"encoding/json"
	"fmt"
	"time"

	"trustedcells/internal/crypto"
)

// CertifiedSeries is a downsampled series signed by the trusted source that
// produced it. The paper requires that the power meter send "a certified time
// series of readings for verification, billing and network operation": the
// recipient (the utility, the insurer) verifies the signature and therefore
// trusts the aggregate without seeing the raw feed.
type CertifiedSeries struct {
	// SourceID names the trusted source (e.g. "linky-meter-42").
	SourceID string `json:"source_id"`
	// Name and Unit describe the measurement.
	Name string `json:"name"`
	Unit string `json:"unit"`
	// Granularity of the reported points.
	Granularity time.Duration `json:"granularity"`
	// Aggregate describes which statistic each point carries.
	Aggregate string `json:"aggregate"`
	// Points are the reported values.
	Points []Point `json:"points"`
	// IssuedAt is the certification timestamp.
	IssuedAt time.Time `json:"issued_at"`
	// SourceKey is the trusted source's public verification key.
	SourceKey []byte `json:"source_key"`
	// Signature is the Ed25519 signature over the canonical encoding.
	Signature []byte `json:"signature"`
}

// canonicalBytes returns the byte string that is signed: every field except
// the signature, in a fixed JSON encoding.
func (c *CertifiedSeries) canonicalBytes() ([]byte, error) {
	clone := *c
	clone.Signature = nil
	return json.Marshal(&clone)
}

// Certify builds a certified series from a downsampled series, signing it
// with the source's signing function (typically tamper.TEE.Sign).
func Certify(sourceID string, s *Series, g Granularity, kind AggregateKind,
	issuedAt time.Time, sourceKey crypto.VerifyKey, sign func([]byte) ([]byte, error)) (*CertifiedSeries, error) {

	down, err := s.DownsampleSeries(g, kind)
	if err != nil {
		return nil, fmt.Errorf("timeseries: certify: %w", err)
	}
	c := &CertifiedSeries{
		SourceID:    sourceID,
		Name:        s.Name(),
		Unit:        s.Unit(),
		Granularity: time.Duration(g),
		Aggregate:   kind.String(),
		Points:      down.Points(),
		IssuedAt:    issuedAt,
		SourceKey:   sourceKey.Bytes(),
	}
	msg, err := c.canonicalBytes()
	if err != nil {
		return nil, fmt.Errorf("timeseries: certify: %w", err)
	}
	sig, err := sign(msg)
	if err != nil {
		return nil, fmt.Errorf("timeseries: certify: %w", err)
	}
	c.Signature = sig
	return c, nil
}

// Verify checks the certification signature and that the series was signed by
// expectedSource (if non-zero).
func (c *CertifiedSeries) Verify(expectedSource *crypto.VerifyKey) error {
	vk, err := crypto.VerifyKeyFromBytes(c.SourceKey)
	if err != nil {
		return fmt.Errorf("timeseries: verify: %w", err)
	}
	if expectedSource != nil && !vk.Equal(*expectedSource) {
		return fmt.Errorf("timeseries: verify: series signed by an unexpected source")
	}
	msg, err := c.canonicalBytes()
	if err != nil {
		return fmt.Errorf("timeseries: verify: %w", err)
	}
	if err := vk.Verify(msg, c.Signature); err != nil {
		return fmt.Errorf("timeseries: verify: %w", err)
	}
	return nil
}
