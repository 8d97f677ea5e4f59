package broker

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/pem"
	"fmt"
	"math/big"
	"net"
	"time"
)

// TLS support: the hosted service speaks AMQPS (AMQP over TLS) between
// endpoints and the cloud; this file provides the encrypted transport
// variant of the broker with an in-memory self-signed identity, the moral
// equivalent of ZMQ Curve keys distributed at registration time.

// brokerServerName is the SNI/verification name baked into generated
// certificates; clients pin it rather than relying on hostnames.
const brokerServerName = "globus-compute-broker"

// GenerateIdentity mints a self-signed TLS identity for a broker and the
// CA pool clients use to verify it.
func GenerateIdentity() (tls.Certificate, *x509.CertPool, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return tls.Certificate{}, nil, fmt.Errorf("broker: tls key: %w", err)
	}
	serial, err := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), 128))
	if err != nil {
		return tls.Certificate{}, nil, err
	}
	tmpl := x509.Certificate{
		SerialNumber:          serial,
		Subject:               pkix.Name{CommonName: brokerServerName},
		DNSNames:              []string{brokerServerName},
		IPAddresses:           []net.IP{net.IPv4(127, 0, 0, 1), net.IPv6loopback},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(365 * 24 * time.Hour),
		KeyUsage:              x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:           []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		BasicConstraintsValid: true,
		IsCA:                  true,
	}
	der, err := x509.CreateCertificate(rand.Reader, &tmpl, &tmpl, &key.PublicKey, key)
	if err != nil {
		return tls.Certificate{}, nil, fmt.Errorf("broker: tls cert: %w", err)
	}
	leaf, err := x509.ParseCertificate(der)
	if err != nil {
		return tls.Certificate{}, nil, err
	}
	pool := x509.NewCertPool()
	pool.AddCert(leaf)
	cert := tls.Certificate{Certificate: [][]byte{der}, PrivateKey: key, Leaf: leaf}
	return cert, pool, nil
}

// CertPEM renders the identity's certificate as PEM, for distribution to
// endpoints (the registration-time key handout).
func CertPEM(cert tls.Certificate) ([]byte, error) {
	if len(cert.Certificate) == 0 {
		return nil, fmt.Errorf("broker: identity has no certificate")
	}
	return pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: cert.Certificate[0]}), nil
}

// PoolFromPEM builds a verification pool from PEM certificate data.
func PoolFromPEM(data []byte) (*x509.CertPool, error) {
	pool := x509.NewCertPool()
	if !pool.AppendCertsFromPEM(data) {
		return nil, fmt.Errorf("broker: no certificates in PEM data")
	}
	return pool, nil
}

// ServeTLS starts a broker server speaking TLS with the given identity.
func ServeTLS(b *Broker, addr string, cert tls.Certificate) (*Server, error) {
	ln, err := tls.Listen("tcp", addr, &tls.Config{
		Certificates: []tls.Certificate{cert},
		MinVersion:   tls.VersionTLS13,
	})
	if err != nil {
		return nil, fmt.Errorf("broker: tls listen: %w", err)
	}
	s := &Server{B: b, ln: ln, conns: make(map[net.Conn]struct{})}
	go s.acceptLoop()
	return s, nil
}

// DialTLS connects to a TLS broker, verifying against the given CA pool and
// the pinned broker server name.
func DialTLS(addr string, roots *x509.CertPool) (*Client, error) {
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	conn, err := tls.DialWithDialer(dialer, "tcp", addr, &tls.Config{
		RootCAs:    roots,
		ServerName: brokerServerName,
		MinVersion: tls.VersionTLS13,
	})
	if err != nil {
		return nil, fmt.Errorf("broker: tls dial %s: %w", addr, err)
	}
	return newClient(conn), nil
}
