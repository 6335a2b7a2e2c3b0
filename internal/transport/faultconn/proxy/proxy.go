// Package proxy holds the fault-injection relay that the transport tests
// and the crash-recovery end-to-end check drive reconnecting clients
// through.
package proxy

import (
	"io"
	"net"
	"sync"
)

// Proxy is a TCP relay between clients and one upstream address, with a
// kill switch: CutLinks severs every live link at once, the
// "pull-the-cable" fault that forces clients through their reconnect
// path while the upstream server stays healthy. New connections after a
// cut relay normally, so a reconnecting client recovers through the
// same address it lost.
type Proxy struct {
	ln       net.Listener
	upstream string

	mu     sync.Mutex
	links  map[*proxyLink]struct{}
	closed bool
	wg     sync.WaitGroup
}

// proxyLink is one client↔upstream relay pair.
type proxyLink struct {
	client, server net.Conn
}

func (pl *proxyLink) closeBoth() {
	pl.client.Close()
	pl.server.Close()
}

// New starts a relay on an ephemeral localhost port forwarding to
// upstream. Close it when done.
func New(upstream string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{ln: ln, upstream: upstream, links: make(map[*proxyLink]struct{})}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the address clients dial instead of the upstream's.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// CutLinks severs every live relay pair. Connections established
// afterwards relay normally.
func (p *Proxy) CutLinks() {
	p.mu.Lock()
	links := make([]*proxyLink, 0, len(p.links))
	for pl := range p.links {
		links = append(links, pl)
	}
	clear(p.links)
	p.mu.Unlock()
	for _, pl := range links {
		pl.closeBoth()
	}
}

// Close stops accepting, severs every link, and waits for the relay
// goroutines to drain.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	err := p.ln.Close()
	p.CutLinks()
	p.wg.Wait()
	return err
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		server, err := net.Dial("tcp", p.upstream)
		if err != nil {
			client.Close()
			continue
		}
		pl := &proxyLink{client: client, server: server}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			pl.closeBoth()
			continue
		}
		p.links[pl] = struct{}{}
		p.mu.Unlock()
		p.wg.Add(2)
		go p.relay(pl, pl.client, pl.server)
		go p.relay(pl, pl.server, pl.client)
	}
}

// relay pumps one direction; when either side dies it severs the whole
// pair, so a half-closed link does not strand the peer.
func (p *Proxy) relay(pl *proxyLink, dst, src net.Conn) {
	defer p.wg.Done()
	io.Copy(dst, src)
	pl.closeBoth()
	p.mu.Lock()
	delete(p.links, pl)
	p.mu.Unlock()
}
