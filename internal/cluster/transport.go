package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/fleet"
	"repro/internal/stream"
)

// The one document nodes exchange is a tenant's checkpoint: pulled from
// the owner (standby sync, migration) and POSTed to the node that
// adopts it (migration). Everything else a tenant serves stays on its
// owning node.

// pullCheckpoint fetches a tenant's handoff document from the node at
// addr, bounded by ctx and by 10 s. Aborting is always safe: a read
// changes nothing on either side. Errors name the tenant and the node.
func pullCheckpoint(ctx context.Context, client *http.Client, addr, tenant string) (stream.Checkpoint, error) {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	var cp stream.Checkpoint
	err := func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/v1/t/"+tenant+"/checkpoint", nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			return errors.New(resp.Status)
		}
		return json.NewDecoder(resp.Body).Decode(&cp)
	}()
	if err != nil {
		return stream.Checkpoint{}, fmt.Errorf("cluster: pull checkpoint for %s from %s: %w", tenant, addr, err)
	}
	return cp, nil
}

// adoptCheckpoint ships a checkpoint to the node at addr, which starts
// hosting the tenant from it. The POST runs under
// context.WithoutCancel(ctx), bounded only by postAdopt's 30 s: once
// the target may have adopted, the caller has to learn the outcome and
// repoint routing, or a client that hangs up mid-POST would leave the
// target hosting a tenant that no reader is ever routed to.
func adoptCheckpoint(ctx context.Context, client *http.Client, addr, tenant string, cp stream.Checkpoint) error {
	body, err := json.Marshal(map[string]any{"tenant": tenant, "checkpoint": cp})
	if err != nil {
		return err
	}
	return postAdopt(context.WithoutCancel(ctx), client, addr, bytes.NewReader(body))
}

// postAdopt POSTs an adopt body to a node, mapping the v1 error
// envelope back onto the lifecycle sentinels.
func postAdopt(ctx context.Context, client *http.Client, addr string, body io.Reader) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+addr+"/v1/cluster/adopt", body)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return nil
	case http.StatusConflict:
		return fmt.Errorf("cluster: adopt on %s: %w", addr, fleet.ErrAlreadyHosted)
	case http.StatusNotFound:
		return fmt.Errorf("cluster: adopt on %s: %w", addr, fleet.ErrUnknownTenant)
	}
	var e struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	msg := resp.Status
	if json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&e) == nil && e.Error.Message != "" {
		msg = e.Error.Message
	}
	return errors.New("cluster: adopt on " + addr + ": " + msg)
}
