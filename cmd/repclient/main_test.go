package main

import (
	"context"
	"net/http/httptest"
	"strconv"
	"testing"

	"softreputation/internal/client"
	"softreputation/internal/core"
	"softreputation/internal/repo"
	"softreputation/internal/server"
)

// activate registers and activates username with password "pw-"+username.
func activate(t *testing.T, srv *server.Server, username string) {
	t.Helper()
	email := username + "@example.com"
	if err := srv.Register(server.RegisterParams{Username: username, Password: "pw-" + username, Email: email}); err != nil {
		t.Fatal(err)
	}
	mail, ok := srv.Mailer().(*server.MemoryMailer).Read(email)
	if !ok {
		t.Fatalf("no activation mail for %s", email)
	}
	if _, err := srv.Activate(mail.Token); err != nil {
		t.Fatal(err)
	}
}

// TestRemark sends the §3.2 remark the way a user would: by the comment
// id lookup prints, with the remarking user's credentials.
func TestRemark(t *testing.T) {
	store := repo.OpenMemory()
	defer store.Close()
	srv, err := server.New(server.Config{Store: store, EmailPepper: "p"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	api := client.NewAPI(ts.URL, nil)

	activate(t, srv, "ann")
	activate(t, srv, "bob")
	session, err := srv.Login("ann", "pw-ann")
	if err != nil {
		t.Fatal(err)
	}
	meta := core.SoftwareMeta{ID: core.ComputeSoftwareID([]byte("freebie")), FileName: "freebie.exe", FileSize: 7}
	id, err := srv.Vote(session, meta, 3, 0, "shows pop-ups")
	if err != nil {
		t.Fatal(err)
	}
	cid := strconv.FormatUint(id, 10)

	for _, args := range [][]string{
		{"-user", "bob", cid, "up"},                    // no password
		{"-user", "bob", "-pass", "pw-bob", cid},       // no direction
		{"-user", "bob", "-pass", "pw-bob", cid, "no"}, // not up or down
		{"-user", "bob", "-pass", "wrong", cid, "up"},  // login refused
	} {
		if err := cmdRemark(api, args); err == nil {
			t.Errorf("remark %q: no error", args)
		}
	}
	if err := cmdRemark(api, []string{"-user", "bob", "-pass", "pw-bob", "#" + cid, "up"}); err != nil {
		t.Fatal(err)
	}
	rep, err := api.Lookup(context.Background(), meta)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Comments) != 1 || rep.Comments[0].ID != id || rep.Comments[0].Positive != 1 || rep.Comments[0].Negative != 0 {
		t.Fatalf("comments after remark = %+v", rep.Comments)
	}
}
